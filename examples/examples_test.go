// Smoke tests for the runnable examples: each one is executed as a real
// `go run` subprocess with a tiny round count and a hard timeout, asserting
// it exits cleanly and prints its summary. This keeps the examples honest —
// they compile against the current API and actually run end to end.
package examples_test

import (
	"context"
	"os/exec"
	"strings"
	"testing"
	"time"
)

func runExample(t *testing.T, pkg string, args ...string) string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, "go", append([]string{"run", "./" + pkg}, args...)...)
	cmd.Dir = ".." // module root
	out, err := cmd.CombinedOutput()
	if ctx.Err() != nil {
		t.Fatalf("%s timed out\n%s", pkg, out)
	}
	if err != nil {
		t.Fatalf("%s: %v\n%s", pkg, err, out)
	}
	return string(out)
}

func TestQuickstartSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess smoke test")
	}
	out := runExample(t, "examples/quickstart", "-rounds", "25")
	if !strings.Contains(out, "max error") {
		t.Fatalf("quickstart did not print its summary:\n%s", out)
	}
}

func TestWANSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess smoke test")
	}
	out := runExample(t, "examples/wan", "-rounds", "5", "-latency", "1ms")
	if !strings.Contains(out, "estimate f(x̄)") {
		t.Fatalf("wan did not print its summary:\n%s", out)
	}
}

func TestWANChaosSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess smoke test")
	}
	out := runExample(t, "examples/wan", "-rounds", "8", "-latency", "1ms", "-chaos-seed", "3")
	if !strings.Contains(out, "chaos enabled") || !strings.Contains(out, "faults:") {
		t.Fatalf("wan chaos run did not report fault injection:\n%s", out)
	}
}

func TestSketchF2Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess smoke test")
	}
	out := runExample(t, "examples/sketchf2", "-events", "800")
	if !strings.Contains(out, "protocol outcomes identical: true") {
		t.Fatalf("sketchf2 elided and per-event runs diverged:\n%s", out)
	}
	if !strings.Contains(out, "% skipped") || !strings.Contains(out, "max error") {
		t.Fatalf("sketchf2 did not print its elision summary:\n%s", out)
	}
}

func TestMultitenantSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess smoke test")
	}
	out := runExample(t, "examples/multitenant", "-rounds", "15")
	for _, want := range []string{"group 0", "group 1", "group 2", "frames"} {
		if !strings.Contains(out, want) {
			t.Fatalf("multitenant summary missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "false") {
		t.Fatalf("a group's estimate left its ε bound:\n%s", out)
	}
}
