package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/workloads"
)

// Golden-checksum regression tests: each driver below runs a fixed-seed
// scaled-down campaign and hashes every raw sample (exact float64 bits) plus
// the rendered artifact. The pinned digests were captured before the
// allocation-free kernel/pfs rework; any optimization that perturbs event
// ordering or floating-point evaluation order fails these tests loudly
// instead of silently shifting the paper's tables and figures.
//
// If a change is *supposed* to alter simulation results, rerun with
//	go test ./internal/experiments -run TestGolden -v
// and update the constants from the failure output.

const (
	goldenFig1Digest   = "61971c8263cabb7a6ca26c06b96fc8db383743a1577b8c48a58071573e46aea6"
	goldenTableIDigest = "ea644d461215ae0a8e944b3edaefd2bbb1b6cdf10d988ba60ede438d75cba782"
	goldenFig5Digest   = "ef845f8698e987f375cb7d79d362634781a3b97ea767ee672406429d4d5287e3"
)

func hashFloats(h hash.Hash, xs []float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
}

func hashInts(h hash.Hash, xs []int) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
}

func hashString(h hash.Hash, s string) {
	hashInts(h, []int{len(s)})
	h.Write([]byte(s))
}

func TestGoldenFig1Checksum(t *testing.T) {
	opt := Fig1Options{
		OSTs:    8,
		Ratios:  []int{1, 4, 16},
		SizesMB: []float64{8, 128},
		Samples: 3,
		Seed:    2010,
	}
	res, err := Fig1(opt)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, sizeMB := range opt.SizesMB {
		sizeName := sizeNameOf(sizeMB)
		for _, ratio := range opt.Ratios {
			hashString(h, sizeName)
			hashInts(h, []int{ratio})
			hashFloats(h, res.Samples[sizeName][ratio])
		}
	}
	hashString(h, res.Aggregate.Render())
	hashString(h, res.PerWriter.Render())
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenFig1Digest {
		t.Fatalf("Fig1 golden checksum changed:\n got %s\nwant %s\n"+
			"simulation outputs are no longer bit-identical to the pinned baseline", got, goldenFig1Digest)
	}
}

// sizeNameOf mirrors Fig1's series naming so sample lookup stays in sync.
func sizeNameOf(sizeMB float64) string {
	return fmt.Sprintf("%gMB", sizeMB)
}

func TestGoldenTableIChecksum(t *testing.T) {
	res, err := TableI(TableIOptions{
		JaguarSamples:   8,
		FranklinSamples: 6,
		XTPSamples:      4,
		ScaleOSTs:       16,
		Seed:            2010,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, s := range res.Series {
		hashString(h, s.Machine)
		hashFloats(h, s.BWSamples)
		hashFloats(h, s.Imbalances)
	}
	hashString(h, res.Table.Render())
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenTableIDigest {
		t.Fatalf("Table I golden checksum changed:\n got %s\nwant %s\n"+
			"simulation outputs are no longer bit-identical to the pinned baseline", got, goldenTableIDigest)
	}
}

func TestGoldenFig5Checksum(t *testing.T) {
	res, err := EvaluateWorkload(
		workloads.Pixie3DGen(workloads.Pixie3DSmall), "golden",
		EvalOptions{
			ProcCounts:   []int{32, 64},
			Samples:      2,
			MPIOSTs:      4,
			AdaptiveOSTs: 16,
			NumOSTs:      16,
			Seed:         2010,
		})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]CaseKey, 0, len(res.BWSamples))
	for k := range res.BWSamples {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Method != b.Method {
			return a.Method < b.Method
		}
		if a.Condition != b.Condition {
			return a.Condition < b.Condition
		}
		return a.Procs < b.Procs
	})
	h := sha256.New()
	for _, k := range keys {
		hashString(h, string(k.Method))
		hashString(h, string(k.Condition))
		hashInts(h, []int{k.Procs})
		hashFloats(h, res.BWSamples[k])
		hashFloats(h, res.ElapsedSamples[k])
		hashInts(h, res.AdaptiveCounts[k])
	}
	hashString(h, res.Figure.Render())
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenFig5Digest {
		t.Fatalf("Fig5 golden checksum changed:\n got %s\nwant %s\n"+
			"simulation outputs are no longer bit-identical to the pinned baseline", got, goldenFig5Digest)
	}
}

// The goldens below extend the pin to every remaining execution path: the
// IOR imbalance series (Fig 3), the XGC1 evaluation (Fig 6), the job-mix
// frontier (app, ML-read and mdtest bodies), the failure sweep (dead-target
// client errors and the coordinator's redirects), the metadata open storm,
// and one campaign each on the POSIX and staging transports. Their digests
// hash every result field through hashValue, so a new field joins the pin
// automatically.

const (
	goldenFig3Digest     = "0f52fee52ce48beed134c57406c37f359c7122bdd1598aa4de8c3d8984b8acb5"
	goldenFig6Digest     = "96f8776440cc60560f0320e14139507b13e1db033cc942e6adb16cae1ce52b9d"
	goldenJobMixDigest   = "ded0f55230c6c80f87414ac8f194340420b282372ee122a5e69a05d15b4129b7"
	goldenFailureDigest  = "ac4bd8eaf4d8836ee97c8396c6fe246742baf0104d68dd434d939b68a7d83359"
	goldenMetadataDigest = "265fc24af7e22f87542c65e03320261a3f8c252c1793f5ec72d3058bf18b48e3"

	goldenJobMixPOSIXStagingDigest = "64d25254009d15f38ce7998790acbf0e98a18183882ac30dc5eede3770b304b9"
	goldenJobMixTraceDigest        = "a61c3aa53b3e054e537b198656401b280e5e71079cdbc0545fe46276a87643b0"
)

// hashValue feeds v into h field by field: float64s as exact bits, maps in
// sorted key order, pointers by their targets. Funcs, channels and
// interfaces are rejected so a digest can never depend on an address.
func hashValue(t *testing.T, h hash.Hash, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Float64, reflect.Float32:
		hashFloats(h, []float64{v.Float()})
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		hashInts(h, []int{int(v.Int())})
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		hashInts(h, []int{int(v.Uint())})
	case reflect.Bool:
		b := 0
		if v.Bool() {
			b = 1
		}
		hashInts(h, []int{b})
	case reflect.String:
		hashString(h, v.String())
	case reflect.Slice, reflect.Array:
		hashInts(h, []int{v.Len()})
		for i := 0; i < v.Len(); i++ {
			hashValue(t, h, v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			hashString(h, v.Type().Field(i).Name)
			hashValue(t, h, v.Field(i))
		}
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })
		hashInts(h, []int{len(keys)})
		for _, k := range keys {
			hashValue(t, h, k)
			hashValue(t, h, v.MapIndex(k))
		}
	case reflect.Pointer:
		if v.IsNil() {
			hashInts(h, []int{0})
			return
		}
		hashValue(t, h, v.Elem())
	default:
		t.Fatalf("hashValue: unsupported kind %s", v.Kind())
	}
}

// checkGolden digests the given values (results and rendered artifacts) and
// compares against want.
func checkGolden(t *testing.T, name, want string, vals ...any) {
	t.Helper()
	h := sha256.New()
	for _, v := range vals {
		hashValue(t, h, reflect.ValueOf(v))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("%s golden checksum changed:\n got %s\nwant %s\n"+
			"simulation outputs are no longer bit-identical to the pinned baseline", name, got, want)
	}
}

func TestGoldenFig3Checksum(t *testing.T) {
	res, err := Fig3(Fig3Options{OSTs: 16, AverageOver: 4, Seed: 2010, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "Fig3", goldenFig3Digest, res)
}

func TestGoldenFig6Checksum(t *testing.T) {
	res, err := Fig6(EvalOptions{
		ProcCounts:   []int{32, 64},
		Samples:      2,
		MPIOSTs:      4,
		AdaptiveOSTs: 16,
		NumOSTs:      16,
		Seed:         2010,
	})
	if err != nil {
		t.Fatal(err)
	}
	speedup := SpeedupSummary(res)
	checkGolden(t, "Fig6", goldenFig6Digest, res.BWSamples, res.ElapsedSamples,
		res.AdaptiveCounts, res.Figure.Render(), speedup.Render())
}

func TestGoldenJobMixChecksum(t *testing.T) {
	res, err := JobMix(JobMixOptions{
		Jobs: []scenario.JobSpec{
			{Name: "ckpt", Kind: scenario.JobKindApp, Generator: "pixie3d-small",
				Procs: 4, Phases: 2, PeriodSeconds: 2},
			{Name: "train", Kind: scenario.JobKindMLRead, Procs: 4, SizeMB: 2,
				Phases: 2, PeriodSeconds: 1, StartSeconds: 1},
			{Name: "meta", Kind: scenario.JobKindMDTest, Procs: 2, FilesPerRank: 4,
				Phases: 2, PeriodSeconds: 1},
		},
		MaxJobs: 3, Samples: 2, NumOSTs: 8, MPIOSTs: 4, AdaptiveOSTs: 8,
		Seed: 2010, Parallel: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	table := JobMixTable(res)
	checkGolden(t, "JobMix", goldenJobMixDigest, res.Cases, res.Figure.Render(), table.Render())

	// A mix whose app jobs run the POSIX and staging transports under
	// artificial interference, with its first replica traced: the pin
	// covers both transports inside a job mix, the per-job joiners, the
	// interferers and the tracer's sampling schedule.
	mix, err := scenario.Run(scenario.Scenario{
		Name:         "golden-jobmix-posix-staging",
		NumOSTs:      8,
		Samples:      2,
		Interference: scenario.Interference{Condition: scenario.ConditionInterference, ChunkMB: 64},
		Jobs: []scenario.JobSpec{
			{Name: "fpp", Kind: scenario.JobKindApp, Generator: "pixie3d-small", Procs: 4,
				Phases: 2, PeriodSeconds: 1, Transport: scenario.Transport{Method: "POSIX"}},
			{Name: "stage", Kind: scenario.JobKindApp, Generator: "pixie3d-small", Procs: 6,
				Phases: 2, PeriodSeconds: 1, StartSeconds: 0.5,
				Transport: scenario.Transport{Method: "STAGING", StagingNodes: 2, StagingBufferMB: 4}},
		},
	}, scenario.RunOptions{Seed: 2010, Parallel: 2, Trace: &scenario.TraceOptions{IntervalSeconds: 0.25}})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "JobMix POSIX+staging", goldenJobMixPOSIXStagingDigest, mix.Points)
	checkGolden(t, "JobMix trace", goldenJobMixTraceDigest, mix.Trace.Samples)
}

func TestGoldenFailureSweepChecksum(t *testing.T) {
	res, err := FailureSweep(FailureSweepOptions{Procs: 16, Samples: 2, NumOSTs: 8, Seed: 2010, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	table := FailureSweepTable(res)
	checkGolden(t, "FailureSweep", goldenFailureDigest, res.Cases, res.Amplification,
		res.Figure.Render(), table.Render())
}

func TestGoldenMetadataChecksum(t *testing.T) {
	res, err := MetadataStudy(MetadataOptions{
		Writers:  32,
		Samples:  2,
		Staggers: []time.Duration{0, time.Millisecond},
		Seed:     2010,
		Parallel: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "Metadata", goldenMetadataDigest, res.StormTimes, res.QueuePeaks, res.Table.Render())
}

// TestGoldenCampaignTransports pins three application campaigns, whose
// POSIX and staging rank steps (and staging's drainers) are their own
// continuation machines, run through scenario.Run: POSIX; staging with one node and a 4 MB staging area
// (ranks wait on the drainers); staging with four nodes draining
// least-loaded (cross-node offset reservation). Each is 16 procs of
// pixie3d-small on 16 targets under artificial interference.
func TestGoldenCampaignTransports(t *testing.T) {
	cases := []struct {
		name, want string
		transport  scenario.Transport
	}{
		{"posix", goldenCampaignPOSIXDigest, scenario.Transport{Method: "POSIX"}},
		{"staging", goldenCampaignStagingDigest,
			scenario.Transport{Method: "STAGING", StagingNodes: 1, StagingBufferMB: 4}},
		{"staging-least-loaded", goldenCampaignStagingLeastLoadedDigest,
			scenario.Transport{Method: "STAGING", StagingNodes: 4, StagingBufferMB: 4, StagingLeastLoaded: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := scenario.Run(scenario.Scenario{
				Name:         "golden-campaign-" + tc.name,
				NumOSTs:      16,
				Samples:      2,
				Workload:     scenario.Workload{Kind: scenario.KindApp, Generator: "pixie3d-small", Procs: 16},
				Transport:    tc.transport,
				Interference: scenario.Interference{Condition: scenario.ConditionInterference},
			}, scenario.RunOptions{Seed: 2010, Parallel: 2})
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, tc.name+" campaign", tc.want, res.Points)
		})
	}
}

const (
	goldenCampaignPOSIXDigest              = "4df4d1860a6df63303f871c6068500ae2b4596f8a446cf2f0971e56f55f37fd0"
	goldenCampaignStagingDigest            = "f5a61afa2db3afc6575ce1d9519a5eb7b8e0ba862f2d962dbf694e4f08962253"
	goldenCampaignStagingLeastLoadedDigest = "829a28cdeb189da65baf885967260a45523143ef8bbab34ba77d2068168c9c2b"
)
