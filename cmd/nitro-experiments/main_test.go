package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// An unknown -run value, including the names of the retired dispatch,
// serving, obs, ensemble and classifiers studies, must exit with status 2
// and list the valid names before any corpus is built (nothing reaches
// stdout).
func TestUnknownRunExitsBeforeBuilding(t *testing.T) {
	for _, name := range []string{"bogus", "dispatch", "serving", "obs", "ensemble", "classifiers"} {
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

// figuresDigest is the SHA-256 of every figure's reduced-scale text, as
// TestFiguresDigest assembles it. A change that moves a figure on purpose
// updates it and says why in CHANGES.md.
const figuresDigest = "bc04dae0f20df98653719abe52847e430450175bdd92e06ff4c42893dd7b54b6"

// TestFiguresDigest pins the paper figures: it runs each experiment once at
// a small scale, drops the lines that carry wall time, and compares one
// digest of the rest with figuresDigest, so a change that moves any figure
// fails here instead of passing the plausibility checks.
func TestFiguresDigest(t *testing.T) {
	var all bytes.Buffer
	for _, name := range []string{"setup", "fig5", "fig6", "fig7", "fig8", "extension", "noise", "portability"} {
		var stdout, stderr bytes.Buffer
		args := []string{"-run", name, "-scale", "0.05", "-train", "24", "-test", "24", "-iters", "10"}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("-run %s: exit status %d: %s", name, code, stderr.String())
		}
		sc := bufio.NewScanner(&stdout)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "built 5 corpora in ") || strings.HasPrefix(line, "total wall time ") ||
				strings.HasPrefix(line, "wrote ") {
				continue
			}
			all.WriteString(line)
			all.WriteByte('\n')
		}
	}
	sum := sha256.Sum256(all.Bytes())
	if got := hex.EncodeToString(sum[:]); got != figuresDigest {
		t.Errorf("figures digest %s, want %s; the figures read:\n%s", got, figuresDigest, all.String())
	}
}
