// Package billing prices the simulated cloud's metered activity:
// function GB-seconds, object storage requests, and VM lifetimes. The
// price book defaults to public IBM Cloud list prices circa the
// paper's evaluation, so the reproduced Table 1 costs are comparable
// in magnitude to the published ones.
package billing

import (
	"fmt"
	"math"
	"strings"
	"time"

	"github.com/faaspipe/faaspipe/internal/faas"
	"github.com/faaspipe/faaspipe/internal/memcache"
	"github.com/faaspipe/faaspipe/internal/objectstore"
	"github.com/faaspipe/faaspipe/internal/vm"
)

// PriceBook holds unit prices in USD.
type PriceBook struct {
	// FunctionGBSecond is the FaaS compute price per GB-second.
	FunctionGBSecond float64
	// FunctionInvocation is the per-invocation price (zero on IBM
	// Cloud Functions, non-zero on some providers).
	FunctionInvocation float64
	// StorageClassA is the price per class A request (PUT/COPY/LIST).
	StorageClassA float64
	// StorageClassB is the price per class B request (GET/HEAD).
	StorageClassB float64
	// StorageGBMonth prices stored volume; pipelines hold data for
	// seconds so this contributes epsilon, but it is accounted.
	StorageGBMonth float64
}

// Default returns IBM Cloud list prices (us-east, standard plan).
func Default() PriceBook {
	return PriceBook{
		FunctionGBSecond:   0.000017,
		FunctionInvocation: 0,
		StorageClassA:      0.005 / 1000,
		StorageClassB:      0.0004 / 1000,
		StorageGBMonth:     0.022,
	}
}

// Line is one priced component of a report.
type Line struct {
	Label string
	USD   float64
}

// Report is an itemized cost breakdown.
type Report struct {
	Lines []Line
}

// Add appends a line. Zero-cost lines are kept: an explicit $0.0000
// row (e.g. "VM: none") makes comparisons readable.
func (r *Report) Add(label string, usd float64) {
	r.Lines = append(r.Lines, Line{Label: label, USD: usd})
}

// Total sums all lines.
func (r Report) Total() float64 {
	var t float64
	for _, l := range r.Lines {
		t += l.USD
	}
	return t
}

// String renders the report as an aligned text table.
func (r Report) String() string {
	var b strings.Builder
	for _, l := range r.Lines {
		fmt.Fprintf(&b, "  %-42s $%9.6f\n", l.Label, l.USD)
	}
	fmt.Fprintf(&b, "  %-42s $%9.6f\n", "TOTAL", r.Total())
	return b.String()
}

// StageCost is one stage's metered spend in the paper's accounting
// ("cloud functions, storage requests, and the VM expenses") plus the
// cache. A plain value: metering a stage allocates nothing, and the
// labelled lines exist only once AppendTo renders them.
type StageCost struct {
	Functions, Storage, VM, Cache float64
}

// AddTo returns t plus the four components, added one at a time in the
// order AppendTo renders them: what Report.Total does over the lines.
func (c StageCost) AddTo(t float64) float64 { return t + c.Functions + c.Storage + c.VM + c.Cache }

// Total is the stage's spend.
func (c StageCost) Total() float64 { return c.AddTo(0) }

// Add accumulates o into c, component by component.
func (c *StageCost) Add(o StageCost) {
	c.Functions += o.Functions
	c.Storage += o.Storage
	c.VM += o.VM
	c.Cache += o.Cache
}

// AppendTo appends the components to r as four labelled lines, each
// label prefixed for attribution (e.g. "sort: ").
func (c StageCost) AppendTo(r *Report, prefix string) {
	r.Add(prefix+"functions", c.Functions)
	r.Add(prefix+"storage requests", c.Storage)
	r.Add(prefix+"vm", c.VM)
	r.Add(prefix+"cache", c.Cache)
}

// FunctionsCost prices a FaaS meter window.
func (pb PriceBook) FunctionsCost(m faas.Meter) float64 {
	return m.GBSeconds*pb.FunctionGBSecond +
		float64(m.Invocations)*pb.FunctionInvocation
}

// StorageCost prices an object storage metrics window: requests by
// class plus the stored-volume integral prorated from the GB-month
// rate (a 30-day month). Deletes are free, as on real providers.
func (pb PriceBook) StorageCost(m objectstore.Metrics) float64 {
	const secondsPerMonth = 30 * 24 * 3600
	volume := m.ByteSeconds / float64(1<<30) / secondsPerMonth * pb.StorageGBMonth
	return float64(m.ClassAOps)*pb.StorageClassA +
		float64(m.ClassBOps)*pb.StorageClassB +
		volume
}

// noLimit as an as-of instant means "now": a resource's accrual stops
// at the simulation clock whatever instant is asked for.
const noLimit = time.Duration(math.MaxInt64)

// CacheCost prices the lifetimes of the given cache clusters. Node
// pricing lives in the cache profile (like the VM catalog), so this
// sums accrued node-hours.
func (pb PriceBook) CacheCost(clusters []*memcache.Cluster) float64 {
	return pb.CacheCostAt(clusters, noLimit)
}

// CacheCostAt is CacheCost as of the instant at: what the clusters had
// accrued by then. A session attributes a standing cluster with it,
// because the clock drifts past a run's end while trailing timers drain.
func (pb PriceBook) CacheCostAt(clusters []*memcache.Cluster, at time.Duration) float64 {
	var total float64
	for _, c := range clusters {
		total += c.CostAt(at)
	}
	return total
}

// VMCost prices the lifetimes of the given instances plus their
// transient storage volume (stored GB prorated from a 30-day month).
func (pb PriceBook) VMCost(instances []*vm.Instance) float64 {
	return pb.VMCostAt(instances, noLimit)
}

// VMCostAt is VMCost as of the instant at (see CacheCostAt).
func (pb PriceBook) VMCostAt(instances []*vm.Instance, at time.Duration) float64 {
	var total float64
	for _, inst := range instances {
		total += inst.CostAt(at)
		// Volume: the boot volume is the instance's memory-sized
		// scratch disk.
		total += pb.HourlyCost(0, inst.Type().MemoryGB, inst.BilledDurationAt(at).Hours())
	}
	return total
}

// HourlyCost is the rate form of VMCost and CacheCost, for usage that
// is predicted instead of metered: hours billed at hourlyUSD (an
// instance's on-demand or spot rate, a cluster's nodes times the node
// rate) plus a boot volume of volumeGB held that long, prorated from
// the GB-month price over a 30-day month.
func (pb PriceBook) HourlyCost(hourlyUSD float64, volumeGB int, hours float64) float64 {
	return hourlyUSD*hours + float64(volumeGB)*pb.StorageGBMonth*hours/(30*24)
}
