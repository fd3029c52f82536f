// Package golden is the registry of the model's committed outputs: the
// SHA-256 of every rendered figure, table and served result that the
// tests and gates pin, in one file, registry.json, built into the
// binary. Its own SHA-256, Hash, is the model version: serve.DigestOf
// puts it in front of every result's key, so re-recording any entry
// gives every stored result a new address, with no version to bump by
// hand.
//
// `make golden` re-records the registry: it runs the checks that own
// the entries with the environment variable PICL_GOLDEN_UPDATE naming
// registry.json, and Verify writes what they computed there instead of
// comparing, printing each entry that moved.
package golden

import (
	"crypto/sha256"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

//go:embed registry.json
var registryJSON []byte

// Hash is the SHA-256 of registry.json.
var Hash = sha256.Sum256(registryJSON)

// Registry maps an entry's name (experiment, scale and inputs) to the
// hex SHA-256 of the output it pins.
type Registry map[string]string

// Committed is registry.json as built into the binary.
var Committed = mustParse(registryJSON)

// updateEnv names the environment variable that switches Verify from
// checking to recording: set it to the path of registry.json.
const updateEnv = "PICL_GOLDEN_UPDATE"

func mustParse(raw []byte) Registry {
	var r Registry
	if err := json.Unmarshal(raw, &r); err != nil {
		panic(fmt.Sprintf("golden: registry.json: %v", err))
	}
	return r
}

// Check returns one line for each entry of got that r lacks or pins to
// another digest, naming the entry.
func (r Registry) Check(got Registry) []string {
	var fails []string
	for _, name := range got.names() {
		want, ok := r[name]
		switch {
		case !ok:
			fails = append(fails, fmt.Sprintf("registry entry %q: missing (got %s)", name, got[name]))
		case want != got[name]:
			fails = append(fails, fmt.Sprintf("registry entry %q: digest %s, want %s", name, got[name], want))
		}
	}
	return fails
}

// Verify checks got against Committed. With updateEnv set, it records
// got into the registry file that variable names instead, prints each
// entry that moved to standard output, and reports only a failure to
// write the file.
func Verify(got Registry) []string {
	path := os.Getenv(updateEnv)
	if path == "" {
		return Committed.Check(got)
	}
	if err := record(path, got); err != nil {
		return []string{fmt.Sprintf("golden: recording into %s: %v", path, err)}
	}
	return nil
}

// record merges got into the registry file at path, rewriting it only
// when an entry moved.
func record(path string, got Registry) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var reg Registry
	if err := json.Unmarshal(raw, &reg); err != nil {
		return err
	}
	moved := false
	for _, name := range got.names() {
		if old, ok := reg[name]; !ok || old != got[name] {
			fmt.Printf("golden: moved %q: %q -> %q\n", name, old, got[name])
			reg[name] = got[name]
			moved = true
		}
	}
	if !moved {
		return nil
	}
	out, err := json.MarshalIndent(reg, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

func (r Registry) names() []string {
	names := make([]string, 0, len(r))
	for name := range r {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
