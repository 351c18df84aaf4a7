package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestResultsMatchQuickRun is the artifact drift gate: rerunning quick mode
// at the default seed must reproduce the checked-in results/ byte for byte,
// so a change that moves any figure or table fails until results/ (and the
// numbers EXPERIMENTS.md quotes from it) are regenerated with
//
//	go run ./cmd/repro -mode quick
//
// summary.txt is compared after dropping its run timestamp and its
// wall-clock timing lines, the only content that varies between runs.
func TestResultsMatchQuickRun(t *testing.T) {
	out := t.TempDir()
	if err := writeArtifacts("quick", out, 42, 2, "", false); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig1.txt", "fig2.txt", "fig3.txt", "fig5.txt", "fig6.txt", "fig7.txt", "table1.txt", "summary.txt"} {
		want, err := os.ReadFile(filepath.Join("..", "..", "results", name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(out, name))
		if err != nil {
			t.Fatal(err)
		}
		if name == "summary.txt" {
			want, got = stableSummary(want), stableSummary(got)
		}
		if string(got) != string(want) {
			t.Errorf("results/%s is stale: a fresh quick run differs; regenerate results/\n--- fresh run ---\n%s", name, got)
		}
	}
}

// stableSummary drops summary.txt's timestamp and timing lines.
func stableSummary(b []byte) []byte {
	var keep []string
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "timing ") {
			continue
		}
		if strings.HasPrefix(line, "Reproduction run: ") {
			if i := strings.LastIndex(line, " at "); i >= 0 {
				line = line[:i]
			}
		}
		keep = append(keep, line)
	}
	return []byte(strings.Join(keep, "\n"))
}

// TestUnknownOnlyKeyWritesNothing pins that a bad -only name fails before
// any artifact, summary.txt included, is written.
func TestUnknownOnlyKeyWritesNothing(t *testing.T) {
	out := t.TempDir()
	err := writeArtifacts("quick", out, 42, 2, "fig4", false)
	if err == nil || !strings.Contains(err.Error(), "fig7") {
		t.Errorf("want an error listing the valid keys, got %v", err)
	}
	entries, err := os.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("unknown -only key wrote %d files to the output directory", len(entries))
	}
}

// TestModeRunsDefaultToResults pins the preset-run default: artifacts go
// to results/ unless -out says otherwise.
func TestModeRunsDefaultToResults(t *testing.T) {
	if c := parseArgs([]string{"-mode", "quick"}); c.out != "results" {
		t.Errorf("-mode run: -out defaults to %q, want results", c.out)
	}
	if c := parseArgs([]string{"-mode", "quick", "-out", ""}); c.out != "" {
		t.Errorf("-mode run with -out \"\": got %q", c.out)
	}
}

// TestScenarioRunsDefaultToStdout pins the -scenario default: output goes
// to stdout, so a one-off run never overwrites the checked-in results/.
func TestScenarioRunsDefaultToStdout(t *testing.T) {
	if c := parseArgs([]string{"-scenario", "fig1", "-set", "osts=32"}); c.out != "" {
		t.Errorf("-scenario run: -out defaults to %q, want stdout", c.out)
	}
	if c := parseArgs([]string{"-scenario", "fig1", "-out", "dir"}); c.out != "dir" {
		t.Errorf("-scenario run with -out dir: got %q", c.out)
	}
}
