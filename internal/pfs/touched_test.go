package pfs

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/simkernel"
)

// FuzzTouchedSet drives arbitrary sequences of creates, opens, one-byte
// writes to chosen targets, flushes and resets across several handles and
// names, and compares every handle's touched set with a map-based
// reference after each step: a created handle starts a fresh set, an
// opened handle shares the set of the handle its name resolves to, and a
// flush visits exactly the set, in ascending order. Resets recycle the
// arena, so later creates reuse the slots and set storage of earlier
// files.
//
// Each input byte is one step: b%5 picks the operation (create, open,
// write, flush, reset) and b/5 its argument.
func FuzzTouchedSet(f *testing.F) {
	f.Add([]byte{0, 6, 2, 7, 12, 3, 1, 11, 8})
	f.Add([]byte{10, 15, 1, 17, 22, 27, 3, 8, 4, 0, 1, 2, 32, 3})
	f.Add([]byte{5, 1, 2, 7, 12, 17, 3, 4, 5, 6, 7, 3, 8})
	f.Add([]byte{25, 30, 1, 6, 11, 16, 21, 26, 31, 36, 8, 13, 4, 25, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		k := simkernel.New()
		defer k.Shutdown()
		cfg := handleConfig()
		fs := MustNew(k, cfg)
		// One-target layouts take the shared table, the explicit list and
		// the round-robin layout keep their own copy; stripes of one byte
		// let a one-byte write at offset j pick target j mod width.
		layouts := []Layout{
			{OSTs: []int{4, 1, 5, 0, 3, 2}, StripeSize: 1},
			{StripeCount: 3, StripeSize: 1},
		}
		for i := 0; i < cfg.NumOSTs; i++ {
			layouts = append(layouts, Layout{OSTs: []int{i}, StripeSize: 1})
		}

		var (
			handles []*File
			ref     []map[int]bool // per handle: the reference touched set
			master  map[string]map[int]bool
		)
		check := func(step int) error {
			for i, h := range handles {
				want := make([]int, 0, len(ref[i]))
				for o := range ref[i] {
					want = append(want, o)
				}
				slices.Sort(want)
				if got := flushOrder(h); !reflect.DeepEqual(got, want) {
					return fmt.Errorf("step %d: handle %d (%s) flushes %v, want %v", step, i, h.Name, got, want)
				}
			}
			return nil
		}
		for len(data) > 0 {
			// Run steps up to the next reset in one client process.
			n := slices.IndexFunc(data, func(b byte) bool { return b%5 == 4 })
			if n < 0 {
				n = len(data)
			}
			seg := data[:n]
			handles, ref, master = handles[:0], ref[:0], map[string]map[int]bool{}
			var failure error
			k.Spawn("client", func(p *simkernel.Proc) {
				for step, b := range seg {
					arg := int(b / 5)
					switch b % 5 {
					case 0: // create
						name := fmt.Sprintf("f%d", arg%3)
						h, err := fs.Create(p, name, layouts[(arg/3)%len(layouts)])
						if err != nil {
							failure = err
							return
						}
						set := map[int]bool{}
						handles, ref = append(handles, h), append(ref, set)
						master[name] = set
					case 1: // open
						name := fmt.Sprintf("f%d", arg%3)
						h, err := fs.Open(p, name)
						if (err == nil) != (master[name] != nil) {
							failure = fmt.Errorf("step %d: open %s: err %v, exists %v", step, name, err, master[name] != nil)
							return
						}
						if err == nil {
							handles, ref = append(handles, h), append(ref, master[name])
						}
					case 2: // write one byte
						if len(handles) == 0 {
							continue
						}
						i := arg % len(handles)
						j := arg / len(handles)
						osts := handles[i].StripeOSTs()
						if err := handles[i].WriteAt(p, int64(j), 1); err != nil {
							failure = err
							return
						}
						ref[i][osts[j%len(osts)]] = true
					case 3: // flush
						if len(handles) == 0 {
							continue
						}
						handles[arg%len(handles)].Flush(p)
					}
					if failure = check(step); failure != nil {
						return
					}
				}
			})
			k.Run()
			if failure != nil {
				t.Fatal(failure)
			}
			if n == len(data) {
				break
			}
			data = data[n+1:]
			k.Reset()
			if err := fs.Reset(cfg); err != nil {
				t.Fatal(err)
			}
		}
	})
}
