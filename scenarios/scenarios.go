// Package scenarios holds the committed scenario specs (the *.json files
// beside this one) embedded in the binary, so a command can run one by
// name without the source tree: llsweep -sweep NAME decodes NAME.json
// and runs it exactly as -scenario scenarios/NAME.json would.
package scenarios

import (
	"embed"
	"fmt"
	"io/fs"
	"strings"
)

//go:embed *.json
var files embed.FS

// Names lists the committed specs in lexical order.
func Names() []string {
	matches, err := fs.Glob(files, "*.json")
	if err != nil {
		panic(err) // unreachable: the pattern is static and well-formed
	}
	for i, m := range matches {
		matches[i] = strings.TrimSuffix(m, ".json")
	}
	return matches
}

// Load returns the bytes of the committed spec name.
func Load(name string) ([]byte, error) {
	data, err := files.ReadFile(name + ".json")
	if err != nil {
		return nil, fmt.Errorf("unknown sweep %q (have %v)", name, Names())
	}
	return data, nil
}
