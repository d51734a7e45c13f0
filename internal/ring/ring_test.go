package ring

import (
	"fmt"
	"math"
	"testing"
)

// testKeys mints n deterministic cache-key-shaped strings.
func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("cluster:%064x", uint64(i)*2654435761)
	}
	return keys
}

func mustRing(t *testing.T, members []string, vnodes int) *Ring {
	t.Helper()
	r, err := New(members, vnodes)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, 64); err == nil {
		t.Error("empty member list accepted")
	}
	if _, err := New([]string{"a", "a"}, 64); err == nil {
		t.Error("duplicate member accepted")
	}
	if _, err := New([]string{""}, 64); err == nil {
		t.Error("empty member address accepted")
	}
	if _, err := New([]string{"a"}, -1); err == nil {
		t.Error("negative vnodes accepted")
	}
	r := mustRing(t, []string{"a"}, 0)
	if r.VNodes() != DefaultVirtualNodes {
		t.Errorf("vnodes default = %d, want %d", r.VNodes(), DefaultVirtualNodes)
	}
}

// TestRoutingIsPureFunction is the satellite property: routing is a pure
// function of (key, ring epoch). Two independently built rings over the
// same members that observe the same liveness transitions must agree on
// the owner of every key at every step — whatever order the members were
// listed in.
func TestRoutingIsPureFunction(t *testing.T) {
	members := []string{"host-c:1", "host-a:1", "host-b:1", "host-d:1"}
	reversed := []string{"host-d:1", "host-b:1", "host-a:1", "host-c:1"}
	a := mustRing(t, members, 64)
	b := mustRing(t, reversed, 64)
	if a.Digest() != b.Digest() {
		t.Fatalf("digest depends on member order: %s vs %s", a.Digest(), b.Digest())
	}
	keys := testKeys(2000)
	transitions := []struct {
		member string
		live   bool
	}{
		{"host-b:1", false},
		{"host-d:1", false},
		{"host-b:1", true},
		{"host-a:1", false},
		{"host-b:1", false},
		{"host-b:1", true},
		{"host-a:1", true},
		{"host-d:1", true},
	}
	check := func(step string) {
		t.Helper()
		if a.Epoch() != b.Epoch() {
			t.Fatalf("%s: epochs diverged: %d vs %d", step, a.Epoch(), b.Epoch())
		}
		for _, k := range keys {
			oa, oka := a.Owner(k)
			ob, okb := b.Owner(k)
			if oa != ob || oka != okb {
				t.Fatalf("%s: rings disagree on %q: %q vs %q", step, k, oa, ob)
			}
		}
	}
	check("initial")
	for i, tr := range transitions {
		a.SetLive(tr.member, tr.live)
		b.SetLive(tr.member, tr.live)
		check(fmt.Sprintf("after transition %d (%+v)", i, tr))
	}
	// Replaying the identical transition sequence on a fresh ring lands
	// on the same (epoch, owner) state: the epoch identifies the view.
	c := mustRing(t, members, 64)
	for _, tr := range transitions {
		c.SetLive(tr.member, tr.live)
	}
	if c.Epoch() != a.Epoch() {
		t.Fatalf("replayed epoch %d != live epoch %d", c.Epoch(), a.Epoch())
	}
	for _, k := range keys {
		oc, _ := c.Owner(k)
		oa, _ := a.Owner(k)
		if oc != oa {
			t.Fatalf("replayed ring disagrees on %q: %q vs %q", k, oc, oa)
		}
	}
}

// TestLeaveMovesOnlyOwnedKeys pins the consistent-hashing stability
// property exactly: when a member dies, the keys it owned fall to ring
// successors and every other key keeps its owner.
func TestLeaveMovesOnlyOwnedKeys(t *testing.T) {
	members := []string{"a:1", "b:1", "c:1", "d:1", "e:1"}
	r := mustRing(t, members, 64)
	keys := testKeys(5000)
	before := make(map[string]string, len(keys))
	for _, k := range keys {
		o, ok := r.Owner(k)
		if !ok {
			t.Fatalf("no owner for %q on a fully live ring", k)
		}
		before[k] = o
	}
	dead := "c:1"
	if !r.SetLive(dead, false) {
		t.Fatal("SetLive reported no change for a live member")
	}
	moved := 0
	for _, k := range keys {
		after, _ := r.Owner(k)
		switch {
		case before[k] == dead:
			moved++
			if after == dead {
				t.Fatalf("key %q still owned by the dead member", k)
			}
		case after != before[k]:
			t.Fatalf("key %q moved %q -> %q though its owner %q stayed live",
				k, before[k], after, before[k])
		}
	}
	// The moved fraction is the dead member's share: ~1/5 of the keys,
	// with consistent-hashing variance. Bound it at 2x the fair share.
	frac := float64(moved) / float64(len(keys))
	if frac > 2.0/float64(len(members)) {
		t.Errorf("leave moved %.1f%% of keys, want <= %.1f%%", 100*frac, 200.0/float64(len(members)))
	}
	if frac == 0 {
		t.Error("leave moved no keys — the dead member owned nothing?")
	}
}

// TestJoinMovesBoundedFraction compares an N-member ring with the same
// ring plus one member: only keys claimed by the newcomer may change
// owner, and their fraction is bounded near 1/(N+1).
func TestJoinMovesBoundedFraction(t *testing.T) {
	base := []string{"a:1", "b:1", "c:1", "d:1", "e:1", "f:1", "g:1"}
	grown := append(append([]string(nil), base...), "h:1")
	small := mustRing(t, base, 64)
	big := mustRing(t, grown, 64)
	keys := testKeys(5000)
	moved := 0
	for _, k := range keys {
		o1, _ := small.Owner(k)
		o2, _ := big.Owner(k)
		if o1 != o2 {
			if o2 != "h:1" {
				t.Fatalf("join moved key %q to %q, not to the new member", k, o2)
			}
			moved++
		}
	}
	frac := float64(moved) / float64(len(keys))
	fair := 1.0 / float64(len(grown))
	if frac > 2*fair {
		t.Errorf("join moved %.1f%% of keys, want <= %.1f%%", 100*frac, 200*fair)
	}
	if moved == 0 {
		t.Error("join moved no keys — the new member owns nothing?")
	}
}

// TestBalance bounds the load imbalance virtual nodes are there to fix:
// with 128 vnodes per member, every member's share of a large key set
// stays within a factor of 2 of fair.
func TestBalance(t *testing.T) {
	members := []string{"a:1", "b:1", "c:1", "d:1"}
	r := mustRing(t, members, 128)
	keys := testKeys(20000)
	shares := map[string]int{}
	for _, k := range keys {
		o, _ := r.Owner(k)
		shares[o]++
	}
	fair := float64(len(keys)) / float64(len(members))
	for _, m := range members {
		ratio := float64(shares[m]) / fair
		if math.Abs(ratio-1) > 1.0 {
			t.Errorf("member %s share ratio %.2f, want within [0, 2] of fair", m, ratio)
		}
		if shares[m] == 0 {
			t.Errorf("member %s owns no keys", m)
		}
	}
}

func TestEpochTransitions(t *testing.T) {
	r := mustRing(t, []string{"a:1", "b:1"}, 16)
	if r.Epoch() != 0 {
		t.Fatalf("fresh epoch = %d, want 0", r.Epoch())
	}
	if r.SetLive("a:1", true) {
		t.Error("no-op SetLive(live->live) reported a change")
	}
	if r.Epoch() != 0 {
		t.Errorf("no-op transition bumped the epoch to %d", r.Epoch())
	}
	if !r.SetLive("a:1", false) || r.Epoch() != 1 {
		t.Errorf("death transition: epoch = %d, want 1", r.Epoch())
	}
	if r.SetLive("a:1", false) {
		t.Error("no-op SetLive(dead->dead) reported a change")
	}
	if !r.SetLive("a:1", true) || r.Epoch() != 2 {
		t.Errorf("rejoin transition: epoch = %d, want 2", r.Epoch())
	}
	if r.SetLive("nobody:1", false) {
		t.Error("unknown member transition reported a change")
	}
	if !r.AdvanceEpoch(9) || r.Epoch() != 9 {
		t.Errorf("AdvanceEpoch(9): epoch = %d, want 9", r.Epoch())
	}
	if r.AdvanceEpoch(4) || r.Epoch() != 9 {
		t.Errorf("AdvanceEpoch must never lower the epoch: %d", r.Epoch())
	}
}

func TestOwnerWithDeadMembers(t *testing.T) {
	members := []string{"a:1", "b:1", "c:1"}
	r := mustRing(t, members, 32)
	keys := testKeys(500)
	r.SetLive("a:1", false)
	r.SetLive("b:1", false)
	for _, k := range keys {
		o, ok := r.Owner(k)
		if !ok || o != "c:1" {
			t.Fatalf("with one live member, Owner(%q) = %q, %v", k, o, ok)
		}
	}
	r.SetLive("c:1", false)
	if _, ok := r.Owner(keys[0]); ok {
		t.Error("Owner reported an owner on an all-dead ring")
	}
	if succ := r.Successors(keys[0], 3); succ != nil {
		t.Errorf("Successors on an all-dead ring = %v, want nil", succ)
	}
}

// TestSuccessorsAreFailoverOrder: killing the owner hands each key to
// its next listed successor.
func TestSuccessorsAreFailoverOrder(t *testing.T) {
	members := []string{"a:1", "b:1", "c:1", "d:1"}
	r := mustRing(t, members, 64)
	for _, k := range testKeys(300) {
		succ := r.Successors(k, 2)
		if len(succ) != 2 {
			t.Fatalf("Successors(%q, 2) = %v", k, succ)
		}
		owner, _ := r.Owner(k)
		if succ[0] != owner {
			t.Fatalf("successor[0] %q != owner %q", succ[0], owner)
		}
		r.SetLive(owner, false)
		next, _ := r.Owner(k)
		if next != succ[1] {
			t.Fatalf("after killing %q, owner = %q, want successor[1] %q", owner, next, succ[1])
		}
		r.SetLive(owner, true)
	}
}

func TestSnapshotAndLookups(t *testing.T) {
	r := mustRing(t, []string{"b:1", "a:1"}, 8)
	r.SetLive("b:1", false)
	s := r.Snapshot()
	if s.Epoch != 1 || s.Live != 1 || s.VNodes != 8 || s.Digest != r.Digest() {
		t.Errorf("snapshot %+v out of sync with ring", s)
	}
	if len(s.Members) != 2 || s.Members[0].Addr != "a:1" || !s.Members[0].Live || s.Members[1].Live {
		t.Errorf("snapshot members %+v, want sorted [a:1 live, b:1 dead]", s.Members)
	}
	if !r.Contains("a:1") || r.Contains("z:1") {
		t.Error("Contains wrong")
	}
	if !r.Live("a:1") || r.Live("b:1") || r.Live("z:1") {
		t.Error("Live wrong")
	}
	if r.LiveCount() != 1 {
		t.Errorf("LiveCount = %d, want 1", r.LiveCount())
	}
}
