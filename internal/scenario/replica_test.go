package scenario

import (
	"reflect"
	"testing"

	"repro/cluster"
	"repro/internal/workloads"
)

// resolveSpec is a two-transport app campaign at toy scale whose workload
// is named, not passed as a function.
func resolveSpec() Scenario {
	return Scenario{
		Name:         "resolve-once",
		NumOSTs:      8,
		Samples:      4,
		Workload:     Workload{Kind: KindApp, Generator: "pixie3d-small", Procs: 16},
		Transport:    Transport{OSTs: 8},
		Axes:         []Axis{{Name: "method", Values: []Value{StrValue("MPI"), StrValue("ADAPTIVE")}}},
		Interference: Interference{Condition: ConditionInterference},
	}
}

// TestGeneratorNameMatchesPerRank pins that resolving a named generator
// once per grid point, so that one per-rank memo serves every replica and
// worker, gives the same samples as passing the generator function itself
// and, for a job mix, as resolving it afresh for every replica on a fresh
// world.
func TestGeneratorNameMatchesPerRank(t *testing.T) {
	opt := RunOptions{Seed: 7, Parallel: 2}
	named, err := Run(resolveSpec(), opt)
	if err != nil {
		t.Fatal(err)
	}
	fn := resolveSpec()
	fn.Workload.Generator = ""
	fn.Workload.PerRank = workloads.Pixie3DGen(workloads.Pixie3DSmall).PerRank
	direct, err := Run(fn, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(named.Points, direct.Points) {
		t.Errorf("app: generator by name and by PerRank differ:\n name %+v\n func %+v", named.Points, direct.Points)
	}

	mix := mixSpec()
	mix.Samples = 4
	shared, err := Run(mix, opt)
	if err != nil {
		t.Fatal(err)
	}
	keys, pts := mix.ReplicaKeys()
	for i, k := range keys {
		cfg, err := mix.resolve(pts[0].Params)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := mix.execReplica(cfg, k.Seed(opt.Seed), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := shared.Points[0].Samples[i]; !reflect.DeepEqual(got, fresh) {
			t.Errorf("job mix replica %v: resolved once %+v, per replica %+v", k, got, fresh)
		}
	}
}

// TestAppReplicaAllocs gates the app path's steady-state allocations per
// rank: a replica of a generator-named 256-process campaign on a pooled
// world, 16 writers per target as in the Fig 5 XL adaptive campaign.
// Regenerating the workload per replica alone costs 9 allocations per
// rank, and a per-rank rank body and step-result wrapper two more (13.9
// and 14.6 per rank in all). Rebuilding the transports' step state every
// replica costs about two more (2.52 and 2.91 per rank in all). Measured
// with the step arena recycling it: MPI 0.46, ADAPTIVE 0.91 allocations
// per rank.
func TestAppReplicaAllocs(t *testing.T) {
	const procs = 256
	for _, method := range []string{"MPI", "ADAPTIVE"} {
		t.Run(method, func(t *testing.T) {
			s := Scenario{
				Name:         "app-allocs",
				Machine:      "jaguar",
				NumOSTs:      84,
				Samples:      1,
				Workload:     Workload{Kind: KindApp, Generator: "pixie3d-xl", Procs: procs},
				Transport:    Transport{Method: method, OSTs: 16},
				Interference: Interference{Condition: ConditionInterference},
			}
			cfg, err := s.resolve(Params{})
			if err != nil {
				t.Fatal(err)
			}
			pool := cluster.NewPool()
			if pool == nil {
				t.Skip("world reuse disabled (REPRO_NO_REUSE)")
			}
			defer pool.Close()
			replica := func() {
				if _, err := s.execReplica(cfg, 42, pool, nil); err != nil {
					t.Fatal(err)
				}
			}
			replica() // builds the world and fills the generator memo
			replica() // warms the reuse path
			perRank := testing.AllocsPerRun(10, replica) / procs
			t.Logf("%.2f allocations per rank", perRank)
			if perRank >= 2 {
				t.Fatalf("app replica allocates %.2f times per rank in steady state; want < 2", perRank)
			}
		})
	}
}
