package bed

import (
	"math"
	"math/rand"
)

// GenConfig parameterizes the synthetic WGBS generator. The defaults
// mimic the statistical structure the METHCOMP codec exploits in real
// bisulfite data: CpG sites clustered into islands with small
// intra-island spacing, bimodal methylation levels, and modest read
// coverage.
type GenConfig struct {
	// Records is the number of methylation calls to produce.
	Records int
	// Seed drives the deterministic generator.
	Seed int64
	// Sorted emits records in genome order when true; otherwise
	// records are shuffled, modeling the unsorted extractor output the
	// pipeline's sort stage exists for.
	Sorted bool
}

const (
	// genCoverage is the generated sites' average read depth.
	genCoverage = 12
	// genChroms is how many chromosomes the sites spread over:
	// chr1..chr22 and chrX.
	genChroms = 23
)

// chromName maps 0-based index to hg38-style names.
func chromName(i int) string {
	if i < 22 {
		return "chr" + itoa(i+1)
	}
	return "chrX"
}

func itoa(n int) string {
	// tiny positive ints only; avoids strconv import churn
	if n < 10 {
		return string(rune('0' + n))
	}
	return string(rune('0'+n/10)) + string(rune('0'+n%10))
}

// Generate produces synthetic bedMethyl records. Same config, same
// output, byte for byte.
func Generate(cfg GenConfig) []Record {
	if cfg.Records <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	recs := make([]Record, 0, cfg.Records)

	// Distribute records across chromosomes proportionally to a
	// roughly hg38-like length profile (longer early chromosomes).
	weights := make([]float64, genChroms)
	var wsum float64
	for i := range weights {
		weights[i] = 1.0 / float64(i+2) // decaying weight
		wsum += weights[i]
	}
	remaining := cfg.Records
	for ci := 0; ci < genChroms && remaining > 0; ci++ {
		n := int(float64(cfg.Records) * weights[ci] / wsum)
		if ci == genChroms-1 || n > remaining {
			n = remaining
		}
		remaining -= n
		recs = appendChrom(recs, rng, chromName(ci), n, genCoverage)
	}

	if !cfg.Sorted {
		rng.Shuffle(len(recs), func(i, j int) {
			recs[i], recs[j] = recs[j], recs[i]
		})
	}
	return recs
}

// appendChrom emits n sites on one chromosome in position order.
func appendChrom(recs []Record, rng *rand.Rand, chrom string, n, meanCov int) []Record {
	pos := int64(10000 + rng.Intn(50000))
	islandLeft := 0
	methRegime := 0 // 0: methylated ocean, 1: unmethylated island
	for i := 0; i < n; i++ {
		if islandLeft == 0 {
			// Enter a new region: 20% CpG islands (dense, mostly
			// unmethylated), 80% open sea (sparse, mostly methylated).
			if rng.Float64() < 0.2 {
				islandLeft = 10 + rng.Intn(40)
				methRegime = 1
			} else {
				islandLeft = 5 + rng.Intn(20)
				methRegime = 0
			}
			pos += int64(500 + rng.Intn(5000)) // inter-region gap
		}
		islandLeft--
		if methRegime == 1 {
			pos += int64(2 + rng.Intn(30)) // dense island spacing
		} else {
			pos += int64(20 + rng.Intn(400)) // open sea spacing
		}

		cov := 1 + poisson(rng, float64(meanCov-1))
		meth := drawMethylation(rng, methRegime, cov)
		strand := byte('+')
		if rng.Intn(2) == 1 {
			strand = '-'
		}
		score := cov
		if score > 1000 {
			score = 1000
		}
		recs = append(recs, Record{
			Chrom:    chrom,
			Start:    pos,
			End:      pos + 1,
			Name:     ".",
			Score:    score,
			Strand:   strand,
			Coverage: cov,
			MethPct:  meth,
		})
	}
	return recs
}

// drawMethylation produces the bimodal percentages characteristic of
// bisulfite data: CpG islands hover near 0%, open sea near 100%, with
// discretization noise from finite coverage.
func drawMethylation(rng *rand.Rand, regime, cov int) int {
	var p float64
	switch {
	case regime == 1 && rng.Float64() < 0.9:
		p = rng.Float64() * 0.08 // island: ~0
	case regime == 0 && rng.Float64() < 0.85:
		p = 0.85 + rng.Float64()*0.15 // sea: ~1
	default:
		p = rng.Float64() // boundary/intermediate
	}
	// Discretize as observed from cov reads, like real callers do.
	methylated := 0
	for r := 0; r < cov; r++ {
		if rng.Float64() < p {
			methylated++
		}
	}
	return int(float64(methylated) / float64(cov) * 100)
}

// poisson draws a Poisson variate by Knuth's method (fine for small
// lambda).
func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	limit := math.Exp(-lambda)
	threshold := 1.0
	for i := 0; i < 200; i++ {
		threshold *= rng.Float64()
		if threshold < limit {
			return i
		}
	}
	return int(lambda)
}
