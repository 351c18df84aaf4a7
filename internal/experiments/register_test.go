package experiments

import (
	"testing"

	"repro/internal/scenario"
)

// TestRegisteredScenariosRender runs every registered definition's quick
// spec at one sample per point and requires its renderer to produce
// non-empty artifacts, covering the entries the results/ drift gate does
// not reach.
func TestRegisteredScenariosRender(t *testing.T) {
	for _, name := range scenario.Names() {
		t.Run(name, func(t *testing.T) {
			def, _ := scenario.Lookup(name)
			s, err := def.Spec(ModeQuick)
			if err != nil {
				t.Fatal(err)
			}
			if err := scenario.ApplySet(&s, "samples=1"); err != nil {
				t.Fatal(err)
			}
			ropt := scenario.RunOptions{Seed: 7, Parallel: 2}
			res, err := scenario.Run(s, ropt)
			if err != nil {
				t.Fatal(err)
			}
			artifacts, _, err := def.Render(res, ropt)
			if err != nil {
				t.Fatal(err)
			}
			if len(artifacts) == 0 {
				t.Fatal("no artifacts")
			}
			for _, a := range artifacts {
				if a.Name == "" || a.Text == "" {
					t.Errorf("empty artifact %q", a.Name)
				}
			}
		})
	}
}
