package main

import (
	"bytes"
	"strings"
	"testing"
)

// An unknown -run value, including the names of the retired dispatch,
// serving, obs and ensemble studies, must exit with status 2 and list the
// valid names before any corpus is built (nothing reaches stdout).
func TestUnknownRunExitsBeforeBuilding(t *testing.T) {
	for _, name := range []string{"bogus", "dispatch", "serving", "obs", "ensemble"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-run", name, "-scale", "0.05", "-train", "8", "-test", "8", "-nogrid"}, &stdout, &stderr)
		if code != 2 {
			t.Errorf("-run %s: exit status %d, want 2", name, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("-run %s: wrote to stdout before rejecting the name:\n%s", name, stdout.String())
		}
		msg := stderr.String()
		if !strings.Contains(msg, `unknown -run "`+name+`"`) {
			t.Errorf("-run %s: stderr does not name the bad value:\n%s", name, msg)
		}
		for _, valid := range runNames {
			if !strings.Contains(msg, valid) {
				t.Errorf("-run %s: stderr does not list %q:\n%s", name, valid, msg)
			}
		}
	}
}
