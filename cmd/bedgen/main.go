// Command bedgen generates synthetic WGBS bedMethyl datasets — the
// stand-in for the paper's ENCFF988BSW sample.
//
// Usage:
//
//	bedgen -records 1000000 -seed 7 -o sample.bed [-sorted]
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"github.com/faaspipe/faaspipe/internal/bed"
)

func main() {
	var (
		records = flag.Int("records", 100000, "number of methylation calls")
		seed    = flag.Int64("seed", 1, "generator seed")
		sorted  = flag.Bool("sorted", false, "emit in genome order")
		out     = flag.String("o", "", "output path (stdout if empty)")
	)
	flag.Parse()
	if err := run(*records, *seed, *sorted, *out); err != nil {
		fmt.Fprintln(os.Stderr, "bedgen:", err)
		os.Exit(1)
	}
}

func run(records int, seed int64, sorted bool, out string) error {
	if records <= 0 {
		return errors.New("-records must be positive")
	}
	recs := bed.Generate(bed.GenConfig{Records: records, Seed: seed, Sorted: sorted})
	if out == "" {
		return bed.Write(os.Stdout, recs)
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	// A close that fails after the writes is a file not finished.
	if err := errors.Join(bed.Write(f, recs), f.Close()); err != nil {
		return err
	}
	fmt.Printf("wrote %d records to %s\n", records, out)
	return nil
}
