package workloads

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestPixie3DSizesMatchPaper(t *testing.T) {
	cases := map[Pixie3DSize]int64{
		Pixie3DSmall: 2 * 1024 * 1024,        // 2 MB/process
		Pixie3DLarge: 128 * 1024 * 1024,      // 128 MB/process
		Pixie3DXL:    1 * 1024 * 1024 * 1024, // 1 GB/process
	}
	for size, want := range cases { //repro:allow nodeterm independent table-driven cases over pure generators
		if got := size.BytesPerProcess(); got != want {
			t.Errorf("%s = %d bytes, want %d", size, got, want)
		}
		data := Pixie3D(0, size)
		if got := data.TotalBytes(); got != want {
			t.Errorf("%s generated %d bytes, want %d", size, got, want)
		}
	}
}

func TestPixie3DHasEightDoubleArrays(t *testing.T) {
	data := Pixie3D(3, Pixie3DLarge)
	if len(data.Vars) != 8 {
		t.Fatalf("vars = %d, want 8", len(data.Vars))
	}
	c := uint64(128)
	for _, v := range data.Vars {
		if len(v.Dims) != 3 || v.Dims[0] != c || v.Dims[1] != c || v.Dims[2] != c {
			t.Fatalf("%s dims = %v, want [128 128 128]", v.Name, v.Dims)
		}
		if v.Bytes != int64(8*c*c*c) {
			t.Fatalf("%s bytes = %d", v.Name, v.Bytes)
		}
		if v.Min >= v.Max {
			t.Fatalf("%s characteristics degenerate: [%v, %v]", v.Name, v.Min, v.Max)
		}
	}
}

func TestPixie3DCubes(t *testing.T) {
	if Pixie3DSmall.Cube() != 32 || Pixie3DLarge.Cube() != 128 || Pixie3DXL.Cube() != 256 {
		t.Fatal("cube sizes do not match the paper's 32/128/256")
	}
}

func TestXGC1TotalExact(t *testing.T) {
	data := XGC1(7)
	if got := data.TotalBytes(); got != XGC1BytesPerProcess {
		t.Fatalf("XGC1 total = %d, want %d", got, int64(XGC1BytesPerProcess))
	}
	if len(data.Vars) != 5 {
		t.Fatalf("vars = %d", len(data.Vars))
	}
}

func TestS3DTotalExactProperty(t *testing.T) {
	f := func(mb uint8, rank uint8) bool {
		size := int64(mb%200+1) * 1024 * 1024
		data := S3D(int(rank), size)
		return data.TotalBytes() == size
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicAcrossCalls(t *testing.T) {
	a := Pixie3D(5, Pixie3DSmall)
	b := Pixie3D(5, Pixie3DSmall)
	for i := range a.Vars {
		if a.Vars[i].Min != b.Vars[i].Min || a.Vars[i].Max != b.Vars[i].Max {
			t.Fatal("workload generation not deterministic")
		}
	}
}

func TestCharacteristicsVaryAcrossRanks(t *testing.T) {
	a := Pixie3D(0, Pixie3DSmall)
	b := Pixie3D(1, Pixie3DSmall)
	same := true
	for i := range a.Vars {
		if a.Vars[i].Min != b.Vars[i].Min {
			same = false
		}
	}
	if same {
		t.Fatal("characteristics identical across ranks — value search untestable")
	}
}

func TestGenerators(t *testing.T) {
	g := Pixie3DGen(Pixie3DLarge)
	if g.Name != "pixie3d-large" || g.BytesPerProcess != 128*1024*1024 {
		t.Fatalf("generator = %+v", g)
	}
	if got := g.PerRank(2).TotalBytes(); got != g.BytesPerProcess {
		t.Fatalf("generator output %d bytes", got)
	}
	x := XGC1Gen()
	if x.PerRank(0).TotalBytes() != XGC1BytesPerProcess {
		t.Fatal("xgc1 generator size wrong")
	}
	s := S3DGen(10 * 1024 * 1024)
	if s.PerRank(0).TotalBytes() != 10*1024*1024 {
		t.Fatal("s3d generator size wrong")
	}
}

func TestFusionCodeGeneratorsExactTotals(t *testing.T) {
	for _, g := range All() {
		for _, rank := range []int{0, 7, 1000} {
			if got := g.PerRank(rank).TotalBytes(); got != g.BytesPerProcess {
				t.Errorf("%s rank %d: %d bytes, want %d", g.Name, rank, got, g.BytesPerProcess)
			}
		}
		if g.BytesPerProcess <= 0 {
			t.Errorf("%s has no size", g.Name)
		}
	}
}

func TestGeneratorNamesDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, g := range All() {
		if seen[g.Name] {
			t.Errorf("duplicate generator name %s", g.Name)
		}
		seen[g.Name] = true
	}
	if len(seen) != 10 {
		t.Errorf("generators = %d, want 10", len(seen))
	}
}

func TestGTCRepresentativeSize(t *testing.T) {
	// The paper: 128 MB/process "is comparable to what many of the fusion
	// codes generate on a per process basis, such as GTC".
	if GTCGen().BytesPerProcess != 128*1024*1024 {
		t.Fatal("GTC size drifted from the paper's reference")
	}
}

func TestGeneratorTableNames(t *testing.T) {
	for _, e := range generators {
		if g := e.new(); g.Name != e.name {
			t.Errorf("table name %q constructs generator %q", e.name, g.Name)
		}
		g, err := ByName(e.name)
		if err != nil || g.Name != e.name {
			t.Errorf("ByName(%q) = %q, %v", e.name, g.Name, err)
		}
	}
	if g, err := ByName("pixie3d-xl"); err != nil || g.Name != "pixie3d-extra large" {
		t.Errorf("ByName(pixie3d-xl) = %q, %v", g.Name, err)
	}
	if _, err := ByName("nope"); err == nil || !strings.Contains(err.Error(), "available: chimera, gtc, gts, mdtest") {
		t.Errorf("unknown-name error = %v", err)
	}
}
