package main

import (
	"io"
	"os"
	"strings"
	"testing"

	"automon/internal/core"
)

// TestHybridReport runs the command once in process (main defines its flags,
// so a second call would redefine them) and pins its summary: message types
// print in MsgType order, not map order, and a Hybrid run prints the
// protocol block of its AutoMon phases.
func TestHybridReport(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, args := os.Stdout, os.Args
	os.Stdout, os.Args = w, []string{"automon-sim", "-func", "inner-product", "-algo", "hybrid"}
	defer func() { os.Stdout, os.Args = stdout, args }()
	read := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		read <- string(b)
	}()
	main()
	w.Close()
	out := <-read

	order := map[string]core.MsgType{}
	for typ := core.MsgViolation; typ <= core.MsgSubtreeRejoin; typ++ {
		order[typ.String()+":"] = typ
	}
	var seen []core.MsgType
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); strings.HasPrefix(line, "  ") && len(f) == 2 {
			if typ, ok := order[f[0]]; ok {
				seen = append(seen, typ)
			}
		}
	}
	if len(seen) < 2 {
		t.Fatalf("fewer than two message types printed:\n%s", out)
	}
	for i := 1; i < len(seen); i++ {
		if seen[i-1] >= seen[i] {
			t.Fatalf("message types not in MsgType order (%v):\n%s", seen, out)
		}
	}
	for _, want := range []string{"algorithm:       hybrid", "full syncs:", "violations:"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary lacks %q:\n%s", want, out)
		}
	}
}
