package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestLoadTenants covers the two tenant-declaration channels and their
// merge/error behavior.
func TestLoadTenants(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "tenants.json")
	if err := os.WriteFile(file, []byte(`[
		{"name":"team-a","token":"tok-a","quotas":{"max_functions":3}},
		{"name":"team-b","token":"tok-b"}
	]`), 0o600); err != nil {
		t.Fatal(err)
	}

	got, err := loadTenants(file, "team-c=tok-c, team-d=tok-d")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("got %d tenants, want 4 (file + inline merged)", len(got))
	}
	if got[0].Name != "team-a" || got[0].Token != "tok-a" || got[0].Quotas.MaxFunctions != 3 {
		t.Fatalf("file tenant mangled: %+v", got[0])
	}
	if got[2].Name != "team-c" || got[3].Token != "tok-d" {
		t.Fatalf("inline tenants mangled: %+v", got[2:])
	}

	for name, args := range map[string][2]string{
		"no tenants":       {"", ""},
		"bad inline pair":  {"", "just-a-name"},
		"empty token":      {"", "name="},
		"missing file":     {filepath.Join(dir, "absent.json"), ""},
		"unparseable file": {file + "x", ""},
	} {
		if name == "unparseable file" {
			if err := os.WriteFile(file+"x", []byte("{not json"), 0o600); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := loadTenants(args[0], args[1]); err == nil {
			t.Errorf("%s: loadTenants(%q, %q) accepted", name, args[0], args[1])
		}
	}
}
