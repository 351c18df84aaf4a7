package scenario

import (
	"fmt"
	"reflect"
	"testing"

	"repro/cluster"
)

// TestStepArenaPooledMatchesFresh runs a sequence of app replicas on one
// pooled world — alternating 16 and 64 storage targets and two rank
// counts, so a recycled world sees steps of a different shape, of the same
// shape after one that differed, and of the same shape twice in a row —
// and checks every sample against the same replica on a fresh world.
func TestStepArenaPooledMatchesFresh(t *testing.T) {
	type point struct{ procs, osts int }
	seq := []point{{128, 16}, {128, 64}, {128, 16}, {128, 16}, {64, 16}, {128, 64}, {128, 64}, {64, 64}, {128, 16}}
	for _, method := range []string{"MPI", "ADAPTIVE"} {
		t.Run(method, func(t *testing.T) {
			pool := cluster.NewPool()
			defer pool.Close()
			for i, p := range seq {
				s := Scenario{
					Name:         "step-arena",
					Machine:      "jaguar",
					NumOSTs:      84,
					Samples:      1,
					Workload:     Workload{Kind: KindApp, Generator: "pixie3d-small", Procs: p.procs},
					Transport:    Transport{Method: method, OSTs: p.osts},
					Interference: Interference{Condition: ConditionInterference},
				}
				cfg, err := s.resolve(Params{})
				if err != nil {
					t.Fatal(err)
				}
				seed := int64(100 + i)
				pooled, err := s.execReplica(cfg, seed, pool, nil)
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := s.execReplica(cfg, seed, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(pooled, fresh) {
					t.Errorf("replica %d %s: pooled world diverged from a fresh one:\npooled %+v\nfresh  %+v",
						i, fmt.Sprint(p), pooled, fresh)
				}
			}
		})
	}
}
