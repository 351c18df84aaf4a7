package bp

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func sampleLocal() LocalIndex {
	return LocalIndex{
		File: "pixie3d.0003.bp",
		Entries: []VarEntry{
			{Name: "rho", WriterRank: 2, Offset: 0, Length: 1024, Dims: []uint64{8, 8, 16}, Min: -1.5, Max: 2.25},
			{Name: "B_x", WriterRank: 0, Offset: 1024, Length: 2048, Dims: []uint64{16, 16, 8}, Min: 0, Max: 9.75},
			{Name: "rho", WriterRank: 0, Offset: 3072, Length: 1024, Min: -3, Max: -0.5},
		},
	}
}

func TestLocalRoundTrip(t *testing.T) {
	li := sampleLocal()
	enc, err := li.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeLocal(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*got, li) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", *got, li)
	}
}

func TestLocalSortCanonicalOrder(t *testing.T) {
	li := sampleLocal()
	li.Sort()
	names := make([]string, len(li.Entries))
	for i, e := range li.Entries {
		names[i] = e.Name
	}
	if !reflect.DeepEqual(names, []string{"B_x", "rho", "rho"}) {
		t.Fatalf("sorted names = %v", names)
	}
	if li.Entries[1].WriterRank != 0 || li.Entries[2].WriterRank != 2 {
		t.Fatal("rho entries not ordered by rank")
	}
}

func TestTotalBytes(t *testing.T) {
	li := sampleLocal()
	if got := li.TotalBytes(); got != 4096 {
		t.Fatalf("total bytes = %d", got)
	}
}

func TestGlobalRoundTripAndSort(t *testing.T) {
	g := GlobalIndex{
		Step: 7,
		Locals: []LocalIndex{
			{File: "out.2.bp", Entries: []VarEntry{{Name: "v", WriterRank: 3, Length: 10}}},
			sampleLocal(),
		},
	}
	enc, err := g.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeGlobal(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != 7 || len(got.Locals) != 2 {
		t.Fatalf("global header wrong: %+v", got)
	}
	// Encode sorts by file name.
	if got.Locals[0].File != "out.2.bp" || got.Locals[1].File != "pixie3d.0003.bp" {
		t.Fatalf("locals order: %s, %s", got.Locals[0].File, got.Locals[1].File)
	}
	if got.NumEntries() != 4 {
		t.Fatalf("entries = %d", got.NumEntries())
	}
}

func TestLookup(t *testing.T) {
	g := GlobalIndex{Locals: []LocalIndex{sampleLocal()}}
	loc, ok := g.Lookup("rho", 2)
	if !ok || loc.File != "pixie3d.0003.bp" || loc.Entry.Offset != 0 {
		t.Fatalf("lookup = %+v, %v", loc, ok)
	}
	if _, ok := g.Lookup("rho", 99); ok {
		t.Fatal("lookup of absent rank should fail")
	}
	if _, ok := g.Lookup("ghost", -1); ok {
		t.Fatal("lookup of absent variable should fail")
	}
	loc, ok = g.Lookup("rho", -1)
	if !ok {
		t.Fatal("wildcard rank lookup failed")
	}
}

func TestFindByValueCharacteristics(t *testing.T) {
	g := GlobalIndex{Locals: []LocalIndex{sampleLocal()}}
	// rho blocks: [-1.5, 2.25] (rank 2) and [-3, -0.5] (rank 0).
	hits := g.FindByValue("rho", 0, 10)
	if len(hits) != 1 || hits[0].Entry.WriterRank != 2 {
		t.Fatalf("value search [0,10] = %+v", hits)
	}
	hits = g.FindByValue("rho", -2, -1)
	if len(hits) != 2 {
		t.Fatalf("value search [-2,-1] hits = %d, want 2 (both ranges intersect)", len(hits))
	}
	if hits := g.FindByValue("rho", 100, 200); hits != nil {
		t.Fatalf("out-of-range search = %+v", hits)
	}
}

func TestVars(t *testing.T) {
	g := GlobalIndex{Locals: []LocalIndex{sampleLocal()}}
	if got := g.Vars(); !reflect.DeepEqual(got, []string{"B_x", "rho"}) {
		t.Fatalf("vars = %v", got)
	}
}

func TestDecodeRejectsCorruptMagic(t *testing.T) {
	li := sampleLocal()
	enc, _ := li.Encode()
	enc[0] ^= 0xFF
	if _, err := DecodeLocal(enc); err == nil {
		t.Fatal("corrupt magic accepted")
	}
	g := GlobalIndex{Locals: []LocalIndex{li}}
	genc, _ := g.Encode()
	genc[0] ^= 0xFF
	if _, err := DecodeGlobal(genc); err == nil {
		t.Fatal("corrupt global magic accepted")
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	li := sampleLocal()
	enc, _ := li.Encode()
	for _, cut := range []int{1, 5, 7, len(enc) / 2, len(enc) - 1} {
		if _, err := DecodeLocal(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestDecodeRejectsWrongVersion(t *testing.T) {
	li := sampleLocal()
	enc, _ := li.Encode()
	enc[4] = 0xFF // version low byte
	if _, err := DecodeLocal(enc); err == nil {
		t.Fatal("wrong version accepted")
	}
}

func TestDecodeLocalAsGlobalFails(t *testing.T) {
	li := sampleLocal()
	enc, _ := li.Encode()
	if _, err := DecodeGlobal(enc); err == nil {
		t.Fatal("local bytes decoded as global")
	}
}

func TestEncodedSizePositive(t *testing.T) {
	e := sampleLocal().Entries[0]
	if e.EncodedSize() < 40 {
		t.Fatalf("encoded size = %d suspiciously small", e.EncodedSize())
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(file string, names []string, ranks []int32, vals []float64) bool {
		if len(file) > 1000 {
			file = file[:1000]
		}
		li := LocalIndex{File: file}
		for i, n := range names {
			if len(n) > 200 {
				n = n[:200]
			}
			e := VarEntry{Name: n}
			if i < len(ranks) {
				e.WriterRank = ranks[i]
			}
			if i < len(vals) && !math.IsNaN(vals[i]) {
				e.Min = vals[i]
				e.Max = vals[i] + 1
			}
			e.Offset = int64(i * 100)
			e.Length = int64(i * 10)
			e.Dims = []uint64{uint64(i), uint64(i * 2)}
			li.Entries = append(li.Entries, e)
		}
		enc, err := li.Encode()
		if err != nil {
			return false
		}
		got, err := DecodeLocal(enc)
		if err != nil {
			return false
		}
		if got.File != li.File || len(got.Entries) != len(li.Entries) {
			return false
		}
		for i := range li.Entries {
			a, b := li.Entries[i], got.Entries[i]
			if a.Name != b.Name || a.WriterRank != b.WriterRank ||
				a.Offset != b.Offset || a.Length != b.Length ||
				a.Min != b.Min || a.Max != b.Max ||
				!reflect.DeepEqual(a.Dims, b.Dims) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// referenceSort is the straightforward stable sort Sort must be equivalent
// to, regardless of which internal path (bucket-order fast path or the
// comparison fallback) handles the input.
func referenceSort(es []VarEntry) []VarEntry {
	out := make([]VarEntry, len(es))
	copy(out, es)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && compareEntries(&out[j], &out[j-1]) < 0; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func TestSortMatchesReference(t *testing.T) {
	entry := func(name string, rank int32, off int64) VarEntry {
		return VarEntry{Name: name, WriterRank: rank, Offset: off, Length: 8}
	}
	manyNames := make([]VarEntry, 0, 40) // >16 names defeats the fast path's inline table
	for i := 0; i < 20; i++ {
		manyNames = append(manyNames,
			entry(string(rune('a'+19-i)), 1, int64(i)),
			entry(string(rune('a'+19-i)), 0, int64(i)))
	}
	cases := []struct {
		name string
		es   []VarEntry
	}{
		{"empty", nil},
		{"single", []VarEntry{entry("x", 0, 0)}},
		{"sorted", []VarEntry{entry("a", 0, 0), entry("a", 1, 0), entry("b", 0, 0)}},
		{"reverse", []VarEntry{entry("b", 0, 0), entry("a", 1, 0), entry("a", 0, 0)}},
		// The leader-merge shape: per-name runs already (rank, offset)
		// ordered, names interleaved out of order.
		{"merge", []VarEntry{
			entry("rho", 0, 0), entry("rho", 1, 64), entry("B_x", 0, 0),
			entry("B_x", 2, 32), entry("psi", 1, 0), entry("rho", 3, 0),
		}},
		// Within-name disorder forces the comparison fallback.
		{"rankDisorder", []VarEntry{entry("a", 2, 0), entry("a", 1, 0), entry("a", 3, 0)}},
		{"offsetDisorder", []VarEntry{entry("a", 1, 64), entry("a", 1, 0)}},
		{"manyNames", manyNames},
	}
	for _, tc := range cases {
		name, es := tc.name, tc.es
		want := referenceSort(es)
		li := LocalIndex{Entries: append([]VarEntry(nil), es...)}
		li.Sort()
		if len(li.Entries) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(li.Entries, want) {
			t.Errorf("%s: Sort mismatch\n got %+v\nwant %+v", name, li.Entries, want)
		}
	}
}

func TestSortMatchesReferenceQuick(t *testing.T) {
	names := []string{"a", "b", "c", "rho"}
	f := func(picks []uint8) bool {
		es := make([]VarEntry, len(picks))
		for i, p := range picks {
			es[i] = VarEntry{
				Name:       names[int(p)%len(names)],
				WriterRank: int32(p>>2) % 5,
				Offset:     int64(p>>4) % 3,
				Length:     4,
			}
		}
		want := referenceSort(es)
		li := LocalIndex{Entries: es}
		li.Sort()
		if len(es) == 0 {
			return true
		}
		return reflect.DeepEqual(li.Entries, want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// fuzzNames is the fuzz target's name pool: more distinct names than
// bucketOrder's 16-slot table, so both Sort paths are reachable.
var fuzzNames = func() []string {
	out := make([]string, 24)
	for i := range out {
		out[i] = string(rune('A' + (i*7)%24))
	}
	return out
}()

// fuzzEntries builds entries from fuzz bytes, three per entry. The first
// byte picks the input shape: as drawn, already canonical (the fast path),
// or ordered by (WriterRank, Offset) with names interleaved (the leader
// merge shape). Length and Min record the draw position, so entries with
// equal keys stay distinguishable and an unstable sort shows.
func fuzzEntries(data []byte) []VarEntry {
	if len(data) == 0 {
		return nil
	}
	shape, data := data[0]%3, data[1:]
	es := make([]VarEntry, 0, len(data)/3)
	for i := 0; i+2 < len(data); i += 3 {
		es = append(es, VarEntry{
			Name:       fuzzNames[int(data[i])%len(fuzzNames)],
			WriterRank: int32(data[i+1] % 8),
			Offset:     int64(data[i+2] % 4),
			Length:     int64(len(es)),
			Dims:       []uint64{uint64(data[i])},
			Min:        float64(len(es)),
		})
	}
	switch shape {
	case 1:
		es = referenceSort(es)
	case 2:
		slices.SortStableFunc(es, func(a, b VarEntry) int {
			if a.WriterRank != b.WriterRank {
				return int(a.WriterRank - b.WriterRank)
			}
			return int(a.Offset - b.Offset)
		})
	}
	return es
}

func cloneLocals(ls []LocalIndex) []LocalIndex {
	out := make([]LocalIndex, len(ls))
	for i, l := range ls {
		out[i] = LocalIndex{File: l.File, Entries: slices.Clone(l.Entries)}
	}
	return out
}

func FuzzLocalIndexSort(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{1, 30, 1, 0, 2, 0, 1, 30, 0, 3})
	f.Add([]byte{2, 5, 1, 0, 4, 0, 2, 5, 0, 1, 9, 3, 1, 4, 2, 2, 23, 7, 3})
	f.Add([]byte{0, 7, 7, 7, 7, 7, 7, 7, 7, 7}) // duplicate keys
	f.Fuzz(func(t *testing.T, data []byte) {
		es := fuzzEntries(data)
		want := referenceSort(es)
		li := LocalIndex{File: "f", Entries: slices.Clone(es)}
		li.Sort()
		if len(es) > 0 && !reflect.DeepEqual(li.Entries, want) {
			t.Fatalf("Sort mismatch\n got %+v\nwant %+v", li.Entries, want)
		}
		once := slices.Clone(li.Entries)
		li.Sort()
		if !reflect.DeepEqual(li.Entries, once) {
			t.Fatalf("second Sort changed a canonical index\n got %+v\nwant %+v", li.Entries, once)
		}

		half := len(es) / 2
		g := GlobalIndex{Step: 3, Locals: []LocalIndex{
			{File: "out.1.bp", Entries: slices.Clone(es[half:])},
			{File: "out.0.bp", Entries: slices.Clone(es[:half])},
		}}
		before := cloneLocals(g.Locals)
		n, err := g.EncodedLen()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(g.Locals, before) {
			t.Fatal("GlobalIndex.EncodedLen modified the locals")
		}
		enc, err := g.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if n != len(enc) {
			t.Fatalf("EncodedLen = %d, len(Encode()) = %d", n, len(enc))
		}
	})
}

func TestSortSortedZeroAlloc(t *testing.T) {
	names := []string{"B_x", "B_y", "B_z", "p", "rho", "v_x", "v_y", "v_z"}
	li := LocalIndex{File: "out.0.bp"}
	for _, name := range names {
		for r := int32(0); r < 128; r++ {
			li.Entries = append(li.Entries, VarEntry{Name: name, WriterRank: r, Length: 8, Dims: []uint64{4, 4, 4}})
		}
	}
	li.Sort()
	if !li.sorted() {
		t.Fatal("Sort did not produce canonical order")
	}
	if got := testing.AllocsPerRun(100, li.Sort); got != 0 {
		t.Errorf("LocalIndex.Sort of a canonical index allocates %v times; want 0", got)
	}
	g := GlobalIndex{Locals: []LocalIndex{li, {File: "out.1.bp", Entries: slices.Clone(li.Entries)}}}
	if got := testing.AllocsPerRun(100, g.Sort); got != 0 {
		t.Errorf("GlobalIndex.Sort of canonical locals allocates %v times; want 0", got)
	}
}
