// Command methcomp compresses and decompresses bedMethyl files with
// the METHCOMP codec — the real, working compressor the pipeline's
// encode stage runs.
//
// Usage:
//
//	methcomp -c raw.bed -o out.mcz     # compress
//	methcomp -d out.mcz -o back.bed    # decompress
//	methcomp -stats raw.bed            # compare against gzip
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/faaspipe/faaspipe/internal/bed"
	"github.com/faaspipe/faaspipe/internal/methcomp"
)

func main() {
	var (
		compress   = flag.String("c", "", "bedMethyl file to compress")
		decompress = flag.String("d", "", "container file to decompress")
		stats      = flag.String("stats", "", "bedMethyl file to size against gzip")
		out        = flag.String("o", "", "output path")
	)
	flag.Parse()
	if err := run(os.Stdout, *compress, *decompress, *stats, *out); err != nil {
		fmt.Fprintln(os.Stderr, "methcomp:", err)
		os.Exit(1)
	}
}

// run carries out one of -c, -d and -stats, reporting to w. A failed
// write or close of the output is an error, so the command never
// reports success for a file it did not finish.
func run(w io.Writer, compress, decompress, stats, out string) error {
	switch {
	case compress != "":
		if out == "" {
			return errors.New("-o required with -c")
		}
		f, err := os.Open(compress)
		if err != nil {
			return err
		}
		defer f.Close()
		recs, err := bed.Parse(f)
		if err != nil {
			return err
		}
		comp, err := methcomp.Compress(recs)
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, comp, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "%d records, %d bytes compressed\n", len(recs), len(comp))
		return nil

	case decompress != "":
		if out == "" {
			return errors.New("-o required with -d")
		}
		data, err := os.ReadFile(decompress)
		if err != nil {
			return err
		}
		recs, err := methcomp.Decompress(data)
		if err != nil {
			return err
		}
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		if err := errors.Join(bed.Write(f, recs), f.Close()); err != nil {
			return err
		}
		fmt.Fprintf(w, "%d records restored\n", len(recs))
		return nil

	case stats != "":
		f, err := os.Open(stats)
		if err != nil {
			return err
		}
		defer f.Close()
		recs, err := bed.Parse(f)
		if err != nil {
			return err
		}
		cmp, err := methcomp.Compare(recs)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "records:    %d\n", cmp.Records)
		fmt.Fprintf(w, "raw:        %d bytes\n", cmp.RawBytes)
		fmt.Fprintf(w, "methcomp:   %d bytes (%.1fx)\n", cmp.CompressedBytes, cmp.Ratio)
		fmt.Fprintf(w, "gzip -9:    %d bytes (%.1fx)\n", cmp.GzipBytes, cmp.GzipRatio)
		fmt.Fprintf(w, "advantage:  %.1fx better than gzip\n", cmp.Advantage)
		return nil

	default:
		return errors.New("one of -c, -d, -stats is required")
	}
}
