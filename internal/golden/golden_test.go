package golden

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRegistryCanonical pins registry.json to the bytes record writes,
// so re-recording an unmoved registry leaves Hash, and with it every
// served address, unchanged.
func TestRegistryCanonical(t *testing.T) {
	out, err := json.MarshalIndent(Committed, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(out, '\n'), registryJSON) {
		t.Fatalf("registry.json is not in the form record writes:\n%s", out)
	}
	if Hash != sha256.Sum256(registryJSON) {
		t.Fatal("Hash is not the SHA-256 of registry.json")
	}
	for name, d := range Committed {
		if len(d) != 64 {
			t.Errorf("entry %q: %q is not a hex SHA-256", name, d)
		}
	}
}

func TestCheckNamesEntries(t *testing.T) {
	reg := Registry{"a": "1", "b": "2"}
	if fails := reg.Check(Registry{"a": "1"}); len(fails) != 0 {
		t.Fatalf("matching subset: %v", fails)
	}
	fails := reg.Check(Registry{"a": "9", "b": "2", "c": "3"})
	if len(fails) != 2 || !strings.Contains(fails[0], `"a": digest 9, want 1`) || !strings.Contains(fails[1], `"c": missing`) {
		t.Fatalf("fails = %q", fails)
	}
}

// TestVerifyRecords drives the update mode against a scratch copy of
// the registry: moved and new entries are written, untouched ones kept,
// and an unmoved re-record leaves the file alone.
func TestVerifyRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "registry.json")
	if err := os.WriteFile(path, registryJSON, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Setenv(updateEnv, path)
	if fails := Verify(Registry{"table5": strings.Repeat("0", 64), "new entry": strings.Repeat("1", 64)}); fails != nil {
		t.Fatal(fails)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := mustParse(raw)
	if got["table5"] != strings.Repeat("0", 64) || got["new entry"] != strings.Repeat("1", 64) || len(got) != len(Committed)+1 {
		t.Fatalf("recorded registry: %v", got)
	}
	stat, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fails := Verify(Registry{"table5": strings.Repeat("0", 64)}); fails != nil {
		t.Fatal(fails)
	}
	if again, err := os.Stat(path); err != nil || !again.ModTime().Equal(stat.ModTime()) {
		t.Fatalf("unmoved re-record rewrote the file (%v)", err)
	}
	t.Setenv(updateEnv, "")
	if fails := Verify(Registry{"table5": strings.Repeat("0", 64)}); len(fails) != 1 {
		t.Fatalf("check mode against the committed registry: %v", fails)
	}
}
