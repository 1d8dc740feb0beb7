package genomics

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/faaspipe/faaspipe/internal/bed"
	"github.com/faaspipe/faaspipe/internal/calib"
	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/core"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/faas"
	"github.com/faaspipe/faaspipe/internal/objectstore"
)

// TestCompressedPartsPinned holds what the encode stage writes on a real
// pipeline run to testdata/compressed_parts.golden, which is compared,
// never rewritten: the SHA-256 and length of every compressed part, at
// two input sizes, under the store, VM and warm-cache exchanges.
func TestCompressedPartsPinned(t *testing.T) {
	want, err := os.ReadFile("testdata/compressed_parts.golden")
	if err != nil {
		t.Fatal(err)
	}
	strategies := []struct {
		name string
		of   func(*calib.Rig) core.ExchangeStrategy
	}{
		{"store", func(*calib.Rig) core.ExchangeStrategy { return core.ObjectStorageExchange{} }},
		{"vm", func(r *calib.Rig) core.ExchangeStrategy { return r.VMStrategy() }},
		{"warm-cache", func(r *calib.Rig) core.ExchangeStrategy { return r.CacheStrategy(true) }},
	}
	var got strings.Builder
	for _, size := range []struct{ records, workers int }{{3000, 4}, {40000, 8}} {
		recs := bed.Generate(bed.GenConfig{Records: size.records, Seed: 33})
		for _, s := range strategies {
			rig := newRig(t)
			stageInput(t, rig, recs)
			runPipeline(t, rig, pipelineConfig(rig, s.of(rig), size.workers))
			fmt.Fprintf(&got, "%s records=%d workers=%d\n", s.name, size.records, size.workers)
			rig.Sim.Spawn("collect", func(p *des.Proc) {
				c := objectstore.NewClient(rig.Store)
				keys, err := c.ListAll(p, "work", "compressed/")
				if err != nil {
					t.Errorf("list: %v", err)
					return
				}
				for _, k := range keys {
					pl, err := c.Get(p, "work", k)
					if err != nil {
						t.Errorf("get %s: %v", k, err)
						return
					}
					b, ok := pl.Bytes()
					if !ok {
						t.Errorf("%s is not real bytes", k)
					}
					fmt.Fprintf(&got, "  %s sha256=%x bytes=%d\n", k, sha256.Sum256(b), len(b))
				}
			})
			if err := rig.Sim.Run(); err != nil {
				t.Fatalf("collect: %v", err)
			}
		}
	}
	if got.String() != string(want) {
		t.Errorf("compressed parts moved:\n got:\n%s\nwant:\n%s", got.String(), want)
	}
}

// TestEncodeErrorTextPinned holds the encode function's answer on sorted
// parts the parse or the coder refuses to testdata/encode_errors.golden,
// which is compared, never rewritten: the exact error text, or the
// SHA-256 and length of the container for a part it accepts. A strand
// '.' before a bad integer in one part reports the bad integer.
func TestEncodeErrorTextPinned(t *testing.T) {
	want, err := os.ReadFile("testdata/encode_errors.golden")
	if err != nil {
		t.Fatal(err)
	}
	const good = "chr1\t10468\t10469\t.\t14\t+\t10468\t10469\t255,0,0\t14\t92\n"
	const dot = "chr1\t10470\t10471\t.\t3\t.\t10470\t10471\t0,255,0\t3\t0\n"
	const badInt = "chr1\t1x\t2\t.\t1\t+\t1\t2\t0,255,0\t1\t1\n"
	const badMeth = "chr1\t10472\t10473\t.\t3\t+\t10472\t10473\t255,0,0\t3\t101\n"
	crlf := bed.Marshal(bed.Generate(bed.GenConfig{Records: 30, Seed: 12, Sorted: true}))
	crlf = bytes.ReplaceAll(crlf, []byte("\n"), []byte("\r\n"))
	crlf = bytes.Replace(crlf, []byte("\r\n"), []byte("\r\n\r\n \t \r\n"), 3)
	parts := []struct {
		name string
		raw  string
	}{
		{"bad-integer", good + good + badInt + good},
		{"strand-dot", good + dot + good},
		{"strand-dot-before-bad-integer", good + dot + good + badInt},
		{"methylation-out-of-range", good + badMeth},
		{"crlf-blank-lines", string(crlf)},
	}
	var got strings.Builder
	for _, part := range parts {
		rig := newRig(t)
		var encErr error
		var out []byte
		rig.Sim.Spawn("driver", func(p *des.Proc) {
			c := objectstore.NewClient(rig.Store)
			if encErr = c.CreateBucket(p, "work"); encErr != nil {
				return
			}
			if encErr = c.Put(p, "work", "sorted/part-0000", payload.Real([]byte(part.raw))); encErr != nil {
				return
			}
			_, encErr = rig.Platform.Invoke(p, EncodeFn, &Task{
				Bucket: "work", Key: "sorted/part-0000",
				OutBucket: "work", OutKey: "compressed/part-0000.mcz",
				Bps: 100e6,
			}, faas.InvokeOptions{})
			if encErr != nil {
				return
			}
			pl, err := c.Get(p, "work", "compressed/part-0000.mcz")
			if err != nil {
				t.Errorf("%s: get: %v", part.name, err)
				return
			}
			out, _ = pl.Bytes()
		})
		if err := rig.Sim.Run(); err != nil {
			t.Fatalf("%s: sim: %v", part.name, err)
		}
		if encErr != nil {
			fmt.Fprintf(&got, "%s error: %v\n", part.name, encErr)
			continue
		}
		fmt.Fprintf(&got, "%s sha256=%x bytes=%d\n", part.name, sha256.Sum256(out), len(out))
	}
	if got.String() != string(want) {
		t.Errorf("encode errors moved:\n got:\n%s\nwant:\n%s", got.String(), want)
	}
}
