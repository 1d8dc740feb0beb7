package shuffle_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/faaspipe/faaspipe/internal/bed"
	"github.com/faaspipe/faaspipe/internal/calib"
	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/objectstore"
	"github.com/faaspipe/faaspipe/internal/shuffle"
)

// keyspaceCase is one sort of the keyspace pin, run alone on a fresh
// paper-profile rig, so its job is the rig's first: scratch names the
// prefix its runs are written under.
type keyspaceCase struct {
	name     string
	real     bool
	workers  int
	exchange shuffle.Exchange
	groups   int
	cleanup  bool
	scratch  string
}

// listing renders every key under prefix with its Size, ETag and
// LastModified, read back by Head. A listing of more than 64 keys
// shows its first and last key and a digest of every line. It runs in a
// process, so a failure is reported and the listing left empty.
func listing(t *testing.T, p *des.Proc, c *objectstore.Client, name, prefix string) string {
	t.Helper()
	keys, err := c.ListAll(p, "work", prefix)
	if err != nil {
		t.Errorf("%s: list %s: %v", name, prefix, err)
		return ""
	}
	lines := make([]string, len(keys))
	for i, k := range keys {
		obj, err := c.Head(p, "work", k)
		if err != nil {
			t.Errorf("%s: head %s: %v", name, k, err)
			return ""
		}
		lines[i] = fmt.Sprintf("  %s size=%d etag=%s modified_ns=%d", k, obj.Size, obj.ETag(), int64(obj.LastModified))
	}
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	head := fmt.Sprintf("%s list %q keys=%d sha256=%x\n", name, prefix, len(keys), sum[:8])
	if len(lines) > 64 {
		lines = []string{lines[0], lines[len(lines)-1]}
	}
	if len(lines) == 0 {
		return head
	}
	return head + strings.Join(lines, "\n") + "\n"
}

// keyspaceTrace runs every case and renders what it left in the store.
// The store's meters are read when the sort returns, before the listing
// and the Heads add their own requests.
func keyspaceTrace(t *testing.T) string {
	t.Helper()
	recs := bed.Generate(bed.GenConfig{Records: 12_000, Seed: 87, Sorted: false})
	input := bed.Marshal(recs)
	cases := []keyspaceCase{
		{name: "sized-w8", workers: 8, scratch: "shuffle-0001/"},
		{name: "sized-w128", workers: 128, scratch: "shuffle-0001/"},
		{name: "real-w8", real: true, workers: 8, scratch: "shuffle-0001/"},
		{name: "real-w128", real: true, workers: 128, scratch: "shuffle-0001/"},
		{name: "sized-two-level-w128-g8-cleanup", workers: 128, exchange: shuffle.ViaStoreTwoLevel,
			groups: 8, cleanup: true, scratch: "hiershuffle-0001-"},
	}
	var b strings.Builder
	for _, tc := range cases {
		profile := calib.Paper()
		rig, err := calib.NewRig(profile)
		if err != nil {
			t.Fatal(err)
		}
		rig.Sim.Spawn("driver", func(p *des.Proc) {
			c := objectstore.NewClient(rig.Store)
			for _, bkt := range []string{"data", "work"} {
				if err := c.CreateBucket(p, bkt); err != nil {
					t.Errorf("%s: bucket: %v", tc.name, err)
					return
				}
			}
			in := payload.Sized(3_500_000_000)
			if tc.real {
				in = payload.RealNoCopy(input)
			}
			if err := c.Put(p, "data", "in", in); err != nil {
				t.Errorf("%s: put: %v", tc.name, err)
				return
			}
			if _, err := rig.Shuffle.Sort(p, shuffle.Spec{
				InputBucket: "data", InputKey: "in",
				OutputBucket: "work", OutputPrefix: "sorted/",
				Workers:        tc.workers,
				Exchange:       tc.exchange,
				Groups:         tc.groups,
				CleanupScratch: tc.cleanup,
				PartitionBps:   profile.PartitionBps,
				MergeBps:       profile.MergeBps,
				MemoryMB:       profile.Faas.MemoryMB,
			}); err != nil {
				t.Errorf("%s: sort: %v", tc.name, err)
				return
			}
			m := rig.Store.Metrics()
			fmt.Fprintf(&b, "%s end_ns=%d store{a=%d b=%d del=%d in=%d out=%d throttled=%d byte_seconds=%s} stored=%d\n",
				tc.name, int64(p.Now()), m.ClassAOps, m.ClassBOps, m.DeleteOps, m.BytesIn, m.BytesOut, m.Throttled,
				strconv.FormatFloat(m.ByteSeconds, 'g', -1, 64), rig.Store.StoredBytes())
			b.WriteString(listing(t, p, c, tc.name, tc.scratch))
			b.WriteString(listing(t, p, c, tc.name, "sorted/"))
		})
		if err := rig.Run(); err != nil {
			t.Fatalf("%s: sim: %v", tc.name, err)
		}
	}
	return b.String()
}

// TestStoreKeyspacePinned pins what a sort leaves in the store, key by
// key: the scratch runs and the output parts a one-level sort writes at
// 8 and 128 workers, sized and on real records, and what a two-level
// sort that cleans its scratch up leaves, with every key's size, ETag
// and modification instant and the store's meters and stored volume. A
// change to how the store keeps an object, or to how the shuffle names
// and sizes its runs, that moves one key, tag, instant or byte-second
// shows up as a diff. It is compared, never rewritten
// (testdata/keyspace.golden).
func TestStoreKeyspacePinned(t *testing.T) {
	got := keyspaceTrace(t)
	golden := filepath.Join("testdata", "keyspace.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v\ngot:\n%s", err, got)
	}
	if got != string(want) {
		t.Errorf("store keyspace drifted from %s.\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}
