package shuffle

import (
	"bytes"
	"sort"
	"testing"

	"github.com/faaspipe/faaspipe/internal/bed"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/objectstore"
)

// The golden tests pin the data plane's end product: the concatenated
// output parts of every operator must be byte-identical to what the
// seed implementation produced — which, for the seed's
// parse-concatenate-sort-serialize reducer, is exactly the TSV
// serialization of the input records in genome order (computed here
// with the seed's own sort.Slice-over-Less as the oracle).

// seedSortedBytes reproduces the seed pipeline's output bytes.
func seedSortedBytes(recs []bed.Record) []byte {
	s := make([]bed.Record, len(recs))
	copy(s, recs)
	sort.Slice(s, func(i, j int) bool { return bed.Less(s[i], s[j]) })
	return bed.Marshal(s)
}

// fetchRawParts concatenates the raw output part bytes in key order.
func fetchRawParts(t *testing.T, rig *testRig, p *des.Proc, keys []string) []byte {
	t.Helper()
	c := objectstore.NewClient(rig.store)
	var out []byte
	for _, k := range keys {
		pl, err := c.Get(p, "out", k)
		if err != nil {
			t.Fatalf("get %s: %v", k, err)
		}
		raw, ok := pl.Bytes()
		if !ok {
			t.Fatalf("output %s is not real", k)
		}
		out = append(out, raw...)
	}
	return out
}

func TestGoldenSortOutputByteIdentical(t *testing.T) {
	rig := newRig(t)
	recs := bed.Generate(bed.GenConfig{Records: 5000, Seed: 81, Sorted: false})
	want := seedSortedBytes(recs)
	var got []byte
	rig.sim.Spawn("driver", func(p *des.Proc) {
		rig.loadInput(t, p, recs)
		res, err := rig.op.Sort(p, sortSpec(6))
		if err != nil {
			t.Errorf("Sort: %v", err)
			return
		}
		got = fetchRawParts(t, rig, p, res.OutputKeys)
	})
	if err := rig.sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("sorted output differs from seed bytes: got %d bytes, want %d", len(got), len(want))
	}
}

func TestGoldenHierarchicalOutputByteIdentical(t *testing.T) {
	rig := newRig(t)
	recs := bed.Generate(bed.GenConfig{Records: 4800, Seed: 82, Sorted: false})
	want := seedSortedBytes(recs)
	var got []byte
	rig.sim.Spawn("driver", func(p *des.Proc) {
		rig.loadInput(t, p, recs)
		res, err := rig.op.SortHierarchical(p, hierSpec(8, 4))
		if err != nil {
			t.Errorf("SortHierarchical: %v", err)
			return
		}
		got = fetchRawParts(t, rig, p, res.OutputKeys)
	})
	if err := rig.sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("hierarchical output differs from seed bytes: got %d bytes, want %d", len(got), len(want))
	}
}

// TestGoldenScaffoldChromsByteIdentical: beyond-table scaffold names
// that collide in the binary key's 8-byte prefix (all hg38 chrUn_*
// contigs share "chrUn_K") must still come out in exact genome order —
// full names decide before start everywhere keys are compared:
// boundary routing, run sorting, and the merge.
func TestGoldenScaffoldChromsByteIdentical(t *testing.T) {
	var recs []bed.Record
	for i := 0; i < 120; i++ {
		// Interleave starts so name order and start order disagree.
		recs = append(recs,
			bed.Record{Chrom: "chrUn_KI270302v1", Start: int64(9000 + i*7), End: int64(9001 + i*7),
				Name: ".", Score: 1, Strand: '+', Coverage: 1, MethPct: 50},
			bed.Record{Chrom: "chrUn_KI270303v1", Start: int64(10 + i*3), End: int64(11 + i*3),
				Name: ".", Score: 1, Strand: '-', Coverage: 1, MethPct: 50},
			bed.Record{Chrom: "chr1", Start: int64(100 + i*11), End: int64(101 + i*11),
				Name: ".", Score: 1, Strand: '+', Coverage: 1, MethPct: 50},
		)
	}
	// Shuffle deterministically so the input is unsorted.
	for i := len(recs) - 1; i > 0; i-- {
		j := (i * 7919) % (i + 1)
		recs[i], recs[j] = recs[j], recs[i]
	}
	want := seedSortedBytes(recs)
	rig := newRig(t)
	var got, gotHier []bed.Record
	var raw, rawHier []byte
	rig.sim.Spawn("driver", func(p *des.Proc) {
		rig.loadInput(t, p, recs)
		res, err := rig.op.Sort(p, sortSpec(4))
		if err != nil {
			t.Errorf("Sort: %v", err)
			return
		}
		raw = fetchRawParts(t, rig, p, res.OutputKeys)
		got = rig.fetchSorted(t, p, res.OutputKeys)
		spec := hierSpec(4, 2)
		spec.OutputPrefix = "sorted/h/"
		hres, err := rig.op.SortHierarchical(p, spec)
		if err != nil {
			t.Errorf("SortHierarchical: %v", err)
			return
		}
		rawHier = fetchRawParts(t, rig, p, hres.OutputKeys)
		gotHier = rig.fetchSorted(t, p, hres.OutputKeys)
	})
	if err := rig.sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if !bed.IsSorted(got) || !bytes.Equal(raw, want) {
		t.Fatal("one-level output misorders prefix-colliding scaffolds")
	}
	if !bed.IsSorted(gotHier) || !bytes.Equal(rawHier, want) {
		t.Fatal("hierarchical output misorders prefix-colliding scaffolds")
	}
}

func TestGoldenCacheOutputByteIdentical(t *testing.T) {
	rig, _, op := newCacheRig(t)
	recs := bed.Generate(bed.GenConfig{Records: 4000, Seed: 83, Sorted: false})
	want := seedSortedBytes(recs)
	var got []byte
	rig.sim.Spawn("driver", func(p *des.Proc) {
		rig.loadInput(t, p, recs)
		res, err := op.Sort(p, cacheSpec(5))
		if err != nil {
			t.Errorf("cache Sort: %v", err)
			return
		}
		got = fetchRawParts(t, rig, p, res.OutputKeys)
	})
	if err := rig.sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("cache output differs from seed bytes: got %d bytes, want %d", len(got), len(want))
	}
}
