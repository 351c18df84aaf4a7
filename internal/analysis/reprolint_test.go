package analysis

// Loader-backed tests: these shell out to `go list -deps -export` against the
// real repository, exactly as cmd/reprolint's standalone mode does.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestRepoIsClean is the lint gate in test form: the full suite over every
// package of the module (test files included) must report nothing. Every
// intentional exception in the tree carries its //repro: waiver, and this
// test is what keeps that claim true.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("builds export data for the whole module")
	}
	pkgs, err := Load(repoRoot(t), "./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("Load returned no packages")
	}
	for _, pkg := range pkgs {
		diags, err := RunSuite(pkg, Suite())
		if err != nil {
			t.Fatalf("RunSuite(%s): %v", pkg.Path, err)
		}
		for _, d := range diags {
			posn := pkg.Fset.Position(d.Pos)
			t.Errorf("%s:%d:%d: [%s] %s", posn.Filename, posn.Line, posn.Column, d.Analyzer, d.Message)
		}
	}
}

// TestResetCompleteMutation drops one field assignment out of
// pfs.FileSystem.Reset and demands that resetcomplete catches it — the
// acceptance check that the analyzer guards real reset methods, not just
// fixtures.
// TestPoolOwnFixtureMutation deletes the designated Recycle call from the
// poolown fixture's clean case and demands a leak finding: the proof that the
// fixture's silence is earned by the put, not by the analyzer ignoring it.
func TestPoolOwnFixtureMutation(t *testing.T) {
	const dropped = "p.put(env) // mutation target: deleting this line must trip poolown"
	sawAnchor := false
	pkg := loadFixtureEdited(t, "poolown", "repro/internal/core", func(name string, src []byte) []byte {
		if !strings.Contains(string(src), dropped) {
			return src
		}
		sawAnchor = true
		return []byte(strings.Replace(string(src), dropped, "", 1))
	})
	if !sawAnchor {
		t.Fatalf("mutation anchor %q not found in poolown fixture", dropped)
	}
	diags, err := RunSuite(pkg, []*Analyzer{PoolOwn})
	if err != nil {
		t.Fatalf("RunSuite: %v", err)
	}
	found := false
	for _, d := range diags {
		if strings.Contains(d.Message, "not released on every path") {
			found = true
		}
	}
	if !found {
		t.Errorf("poolown missed the leak created by deleting %q", dropped)
	}
}

// TestPoolOwnMutation drops the real envelope recycle from the coordinator's
// local-index gather (pump.go, C case 5) and demands poolown reports the
// leak — the whole-module analogue of the fixture mutation above.
func TestPoolOwnMutation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds export data for the core subtree")
	}
	root := repoRoot(t)
	target := filepath.Join(root, "internal", "core", "pump.go")
	src, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	// Locate the gather site first: pump.go recycles envelopes in several
	// places, and only this one keeps the envelope local until the put.
	const anchor = "s.global.Locals = append(s.global.Locals, env.index)"
	idx := strings.Index(string(src), anchor)
	if idx < 0 {
		t.Fatalf("mutation anchor %q not found in %s", anchor, target)
	}
	const dropped = "st.pool.put(env)"
	tail := string(src[idx:])
	if !strings.Contains(tail, dropped) {
		t.Fatalf("%q not found after the anchor in %s", dropped, target)
	}
	mutated := string(src[:idx]) + strings.Replace(tail, dropped, "", 1)

	pkgs, err := load(root, map[string][]byte{target: []byte(mutated)}, []string{"./internal/core"})
	if err != nil {
		t.Fatalf("load with overlay: %v", err)
	}
	found := false
	for _, pkg := range pkgs {
		diags, err := RunSuite(pkg, []*Analyzer{PoolOwn})
		if err != nil {
			t.Fatalf("RunSuite(%s): %v", pkg.Path, err)
		}
		for _, d := range diags {
			if strings.Contains(d.Message, "not released on every path") {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("poolown missed the leak created by deleting %q from the gather case", dropped)
	}
}

// TestContBlockMutation plants a goroutine-blocking collective inside the
// sub-coordinator's continuation body and demands contblock flags it.
func TestContBlockMutation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds export data for the core subtree")
	}
	root := repoRoot(t)
	target := filepath.Join(root, "internal", "core", "pump.go")
	src, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	const anchor = "s.li.Sort()"
	if !strings.Contains(string(src), anchor) {
		t.Fatalf("mutation anchor %q not found in %s", anchor, target)
	}
	mutated := strings.Replace(string(src), anchor, "s.r.Barrier()\n"+anchor, 1)

	pkgs, err := load(root, map[string][]byte{target: []byte(mutated)}, []string{"./internal/core"})
	if err != nil {
		t.Fatalf("load with overlay: %v", err)
	}
	found := false
	for _, pkg := range pkgs {
		diags, err := RunSuite(pkg, []*Analyzer{ContBlock})
		if err != nil {
			t.Fatalf("RunSuite(%s): %v", pkg.Path, err)
		}
		for _, d := range diags {
			if strings.Contains(d.Message, "Rank.Barrier suspends") {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("contblock missed the planted Rank.Barrier in scCont.Step")
	}
}

// TestContBlockSpawnMutation turns the tracer's continuation sampler back
// into a goroutine process and demands contblock's spawn guard flags it:
// the proof that the guard watches real library packages.
func TestContBlockSpawnMutation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds export data for the trace subtree")
	}
	root := repoRoot(t)
	target := filepath.Join(root, "internal", "trace", "trace.go")
	src, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	const anchor = `fs.K.SpawnCont("tracer", (*sampler)(t))`
	if !strings.Contains(string(src), anchor) {
		t.Fatalf("mutation anchor %q not found in %s", anchor, target)
	}
	mutated := strings.Replace(string(src), anchor, `fs.K.Spawn("tracer", func(*simkernel.Proc) {})`, 1)

	pkgs, err := load(root, map[string][]byte{target: []byte(mutated)}, []string{"./internal/trace"})
	if err != nil {
		t.Fatalf("load with overlay: %v", err)
	}
	found := false
	for _, pkg := range pkgs {
		diags, err := RunSuite(pkg, []*Analyzer{ContBlock})
		if err != nil {
			t.Fatalf("RunSuite(%s): %v", pkg.Path, err)
		}
		for _, d := range diags {
			if strings.Contains(d.Message, "Kernel.Spawn starts a goroutine process") {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("contblock missed the goroutine tracer planted in trace.Start")
	}
}

func TestResetCompleteMutation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds export data for the pfs subtree")
	}
	root := repoRoot(t)
	target := filepath.Join(root, "internal", "pfs", "fs.go")
	src, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	const dropped = "fs.nextOST = 0"
	if !strings.Contains(string(src), dropped) {
		t.Fatalf("mutation anchor %q not found in %s", dropped, target)
	}
	mutated := strings.Replace(string(src), dropped, "", 1)

	pkgs, err := load(root, map[string][]byte{target: []byte(mutated)}, []string{"./internal/pfs"})
	if err != nil {
		t.Fatalf("load with overlay: %v", err)
	}
	found := false
	for _, pkg := range pkgs {
		diags, err := RunSuite(pkg, []*Analyzer{ResetComplete})
		if err != nil {
			t.Fatalf("RunSuite(%s): %v", pkg.Path, err)
		}
		for _, d := range diags {
			if strings.Contains(d.Message, "nextOST") {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("resetcomplete missed the dropped %q assignment in FileSystem.Reset", dropped)
	}
}
