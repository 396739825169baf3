package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"github.com/genbase/genbase/internal/core"
)

// runCLI drives one command line in-process and returns the exit status and
// both output streams.
func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func readRepoFile(t *testing.T, name string) []byte {
	t.Helper()
	blob, err := os.ReadFile("../../" + name)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// explain is deterministic and its output is committed: any plan change
// must show up as a PLANS.txt diff in review.
func TestExplainMatchesCommittedPlans(t *testing.T) {
	code, out, errOut := runCLI(t, "explain")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if want := readRepoFile(t, "PLANS.txt"); out != string(want) {
		t.Fatal("explain output differs from PLANS.txt; regenerate with: go run ./cmd/genbase-bench explain > PLANS.txt")
	}
}

func TestFiguresOneRendersEveryPanel(t *testing.T) {
	code, out, errOut := runCLI(t, "figures", "-sizes", "small", "-scale", "0.2", "-reps", "1", "-quiet", "1")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	panels := strings.Split(strings.TrimSpace(out), "\n\n")
	if len(panels) != 5 {
		t.Fatalf("figures 1 printed %d panels, want 5:\n%s", len(panels), out)
	}
	for i, panel := range panels {
		if title := "Figure 1" + string(rune('a'+i)) + ":"; !strings.HasPrefix(panel, title) {
			t.Errorf("panel %d does not start with %q:\n%s", i, title, panel)
		}
		rows := map[string]bool{}
		for _, line := range strings.Split(panel, "\n")[1:] {
			rows[strings.Fields(line)[0]] = true
		}
		for _, cfg := range core.SingleNodeConfigs() {
			if !rows[cfg.Name] {
				t.Errorf("panel %d has no row for %s:\n%s", i, cfg.Name, panel)
			}
		}
	}
}

func TestCrashDrillConverges(t *testing.T) {
	code, out, errOut := runCLI(t, "crash-drill", "-nodes", "4")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	for _, want := range []string{"recovered to epoch 1 (digest+snapshot converged)", "all answers bit-identical"} {
		if !strings.Contains(out, want) {
			t.Errorf("crash-drill output lacks %q:\n%s", want, out)
		}
	}
}

// The top-level usage lists exactly the three commands; fit-cost is gone
// because the cost table is committed data.
func TestUsageListsEveryCommand(t *testing.T) {
	_, _, errOut := runCLI(t)
	for _, name := range []string{"figures", "explain", "crash-drill"} {
		if !strings.Contains(errOut, "\n  "+name+" ") {
			t.Errorf("usage does not list %s:\n%s", name, errOut)
		}
	}
	if strings.Contains(errOut, "fit-cost") {
		t.Errorf("usage still lists fit-cost:\n%s", errOut)
	}
}

// A command line that selects nothing runnable is a usage error: exit 2,
// usage on stderr, nothing on stdout.
func TestBadCommandLinesExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"bogus"},
		{"-figure", "6"},
		{"figures"},
		{"figures", "6"},
		{"figures", "0"},
		{"figures", "table2"},
		{"figures", "1", "table2"},
		{"figures", "-table", "2"},
		{"explain", "extra"},
		{"fit-cost", "-fit-out", "x.json"}, // not a command: the cost table is committed data
		{"crash-drill", "-nodes", "0"},
	} {
		t.Run(strings.Join(append([]string{"genbase-bench"}, args...), " "), func(t *testing.T) {
			code, out, errOut := runCLI(t, args...)
			if code != 2 || out != "" || !strings.Contains(errOut, "usage: genbase-bench") {
				t.Errorf("exit %d, stdout %q, stderr %q; want exit 2 with usage on stderr only", code, out, errOut)
			}
		})
	}
}
