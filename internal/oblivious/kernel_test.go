package oblivious

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"incshrink/internal/gmw"
	"incshrink/internal/table"
	"incshrink/internal/wire"
)

// tieHeavyUnion draws a tagged union the way the join builds one — n1 T1 rows
// then n2 T2 rows, {key, tag, position-in-input} — over a key space small
// enough that most (key, tag) pairs repeat, with negative keys and both
// int64 extremes mixed in.
func tieHeavyUnion(rng *rand.Rand, n1, n2 int) []entry {
	pick := []int64{math.MinInt64, math.MinInt64 + 1, -7, -1, 0, 1, 7, math.MaxInt64 - 1, math.MaxInt64}
	es := make([]entry, 0, n1+n2)
	for i := 0; i < n1+n2; i++ {
		tag, pos := int64(0), int64(i)
		if i >= n1 {
			tag, pos = 1, int64(i-n1)
		}
		es = append(es, entry{Row: table.Row{pick[rng.Intn(len(pick))], tag, pos}, IsView: true})
	}
	return es
}

// TestKernelMatchesReferenceNetwork is the differential test of the kernel,
// at every small size, at the tpcds padded size and just past a power of
// two. On the join ordering the permutation is identical — not merely the
// sorted keys — to the reference network driven by the old `less` closures.
// On the real-first ordering, whose key is total, it is the stable partition
// of the input, payloads compared slot for slot.
func TestKernelMatchesReferenceNetwork(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	sizes := []int{1040, 2049}
	for n := 0; n <= 130; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		n1 := n - n/13 // the join's lopsided split
		es := tieHeavyUnion(rng, n1, n-n1)
		keys := make([]sortKey, n)
		for i, e := range es {
			keys[i] = sortKey{k: uint64(e.Row[0]) ^ signBit, w: uint64(e.Row[1])<<32 | uint64(e.Row[2])}
		}
		sortKeys(new(scratch), keys)
		refSort(es, byColumn(0, 1))
		for i, e := range es {
			got := table.Row{keyVal(keys[i]), int64(keys[i].w >> 32), int64(uint32(keys[i].w))}
			if !got.Equal(e.Row) {
				t.Fatalf("join order n=%d: position %d holds %v, reference %v", n, i, got, e.Row)
			}
		}

		flagged := randEntries(rng, n)
		b := bufferOf(flagged)
		sortRealFirst(b)
		stableRealFirst(flagged)
		entriesEqual(t, entriesOf(b), flagged)
	}
}

// TestJoinMatchesReferenceJoin runs the whole join against the pre-kernel
// formulation — an arity-3 tagged union sorted by the reference network,
// then the same scan — on tie-heavy inputs with negative and extreme keys,
// so the emitted slots and their order are pinned, not just the sort. Every
// record carries its union index as a third, unmatched attribute, so an
// output row names the exact pair that produced it even among records equal
// on key and time.
func TestJoinMatchesReferenceJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 30; trial++ {
		n1, n2, bound := rng.Intn(60), rng.Intn(20), rng.Intn(3)+1
		union := tieHeavyUnion(rng, n1, n2)
		var t1, t2 []Record
		for i, e := range union {
			r := Record{Row: table.Row{e.Row[0], int64(rng.Intn(5)), int64(100 + i)}}
			if e.Row[1] == 0 {
				t1 = append(t1, r)
			} else {
				t2 = append(t2, r)
			}
		}
		refSort(union, byColumn(0, 1))
		var want []entry
		contrib1, contrib2 := make([]int, n1), make([]int, n2)
		var window []int
		var windowKey int64
		for _, u := range union {
			key, src := u.Row[0], int(u.Row[2])
			if key != windowKey {
				window, windowKey = window[:0], key
			}
			emitted := 0
			if u.Row[1] == 0 {
				window = append(window, src)
			} else {
				for _, li := range window {
					if emitted < bound && contrib1[li] < bound && contrib2[src] < bound {
						want = append(want, entry{
							Row:    append(t1[li].Row.Clone(), t2[src].Row...),
							IsView: true,
						})
						contrib1[li]++
						contrib2[src]++
						emitted++
					}
				}
			}
			for ; emitted < bound; emitted++ {
				want = append(want, dummy(recArity(t1)+recArity(t2)))
			}
		}
		entriesEqual(t, smj(t1, t2, nil, bound, nil), want)
	}
}

// TestKernelMatchesGMWCompareExchange: on 32-bit words the kernel's
// compare-exchange opens to the same (lo, hi) as the GMW comparator circuit
// evaluated by two parties over a loopback wire, ties included — the kernel
// the simulator runs and the circuit the protocol would evaluate share one
// comparator definition.
func TestKernelMatchesGMWCompareExchange(t *testing.T) {
	cases := [][2]uint32{
		{0, 0}, {1, 1}, {3, 7}, {7, 3}, {0xFFFFFFFF, 1}, {1, 0xFFFFFFFF},
		{1 << 31, 1<<31 - 1}, {123456, 123456}, {0xFFFFFFFF, 0xFFFFFFFF},
	}
	cexANDs := gmw.CompareExchangeShape.ANDs() // tuples one CompareExchange consumes
	program := func(e *gmw.Eval) (out [][2]uint32) {
		for _, tc := range cases {
			x := gmw.ShareOfWord(e.Role(), tc[0], 0xDEADBEEF)
			y := gmw.ShareOfWord(e.Role(), tc[1], 0x1234ABCD)
			lo, hi := e.CompareExchange(x, y)
			l, _ := e.OpenWord(lo)
			h, _ := e.OpenWord(hi)
			out = append(out, [2]uint32{l, h})
		}
		return out
	}
	c0, c1 := wire.Loopback(256)
	defer c0.Close()
	defer c1.Close()
	e0, e1 := gmw.NewEval(0, c0, 0), gmw.NewEval(1, c1, 0)
	var out1 [][2]uint32
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := e1.RecvTriples(); err != nil {
			t.Errorf("role 1 triples: %v", err)
			return
		}
		out1 = program(e1)
	}()
	if err := e0.DealTriples(gmw.NewDealer(42), cexANDs*len(cases)); err != nil {
		t.Fatalf("role 0 triples: %v", err)
	}
	out0 := program(e0)
	wg.Wait()
	if e0.Err() != nil || e1.Err() != nil {
		t.Fatalf("evaluation errors: role0=%v role1=%v", e0.Err(), e1.Err())
	}
	if !reflect.DeepEqual(out0, out1) {
		t.Fatalf("parties opened different words: %v vs %v", out0, out1)
	}
	for i, tc := range cases {
		keys := []sortKey{{k: uint64(tc[0]), w: 0}, {k: uint64(tc[1]), w: 1}}
		exchange(keys, []int32{0, 1})
		if got := [2]uint32{uint32(keys[0].k), uint32(keys[1].k)}; got != out0[i] {
			t.Errorf("x=%d y=%d: kernel (lo, hi) = %v, circuit opened %v", tc[0], tc[1], got, out0[i])
		}
		if tc[0] == tc[1] && keys[0].w != 0 {
			t.Errorf("x=y=%d: kernel exchanged a tie", tc[0])
		}
	}
}
