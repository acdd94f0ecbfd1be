package main

import (
	"fmt"
	"math/rand"
	"sort"

	"gpumech/internal/kernels"
)

// mix is the kernel set every workload except validate draws from: the
// four pinned kernels of the layer record (vectoradd, bfs, cfd flux,
// sgemm), two stencils, and the DRAM-queue cliff (sad_calc8). Each has
// 1,536 warps at its default grid.
var mix = []string{
	"sdk_vectoradd",
	"rodinia_bfs",
	"rodinia_cfd_compute_flux",
	"parboil_sgemm",
	"rodinia_srad1",
	"rodinia_hotspot",
	"parboil_sad_calc8",
}

// tuple is one point of the warps x MSHRs x bandwidth space. None of the
// three fields changes the cache profile or the interval profiles, so
// every tuple of a kernel costs the same to evaluate.
type tuple struct {
	Warps int
	MSHRs int
	BW    float64
}

var (
	// baseline is the Table I configuration; the golden files and the
	// accuracy envelope pin the model's answers there.
	baseline = tuple{Warps: 32, MSHRs: 32, BW: 192}
	// heldBack is the stressed corner of the grid, whose error no
	// envelope pins.
	heldBack = tuple{Warps: 48, MSHRs: 16, BW: 96}

	axisWarps = []int{16, 32, 48}
	axisMSHRs = []int{16, 32, 64}
	axisBW    = []float64{96, 192, 384}

	policies = []string{"rr", "gto"}
)

// cross returns every tuple of the given axes.
func cross(warps, mshrs []int, bws []float64) []tuple {
	var out []tuple
	for _, w := range warps {
		for _, m := range mshrs {
			for _, b := range bws {
				out = append(out, tuple{Warps: w, MSHRs: m, BW: b})
			}
		}
	}
	return out
}

// grid returns every tuple of the axes the serve workloads draw from.
func grid() []tuple { return cross(axisWarps, axisMSHRs, axisBW) }

// sweepGrid is the grid one sweep evaluates: 12 tuples, with baseline and
// heldBack among them, under both policies.
func sweepGrid() []tuple { return cross(axisWarps, []int{16, 32}, []float64{96, 192}) }

// coldGrids is how many grid sizes serve-cold requests per mix kernel in
// one pass: 7 x 40 = 280 never-seen (kernel, blocks) pairs to one daemon,
// more than its session cache holds (serve.Config.MaxSessions, 256 by
// default), so every pass fills the cache and evicts from it.
const coldGrids = 40

// restartGrids is how many of each kernel's smallest cold grids the
// restart phase replays from the profile store: 7 x 8 = 56 requests a
// pass. The store holds one entry per restarted unit, and deleting a
// synced file cost up to 90 ms on a 2-vCPU VM's ext4 virtual disk, so
// the set is kept small.
const restartGrids = 8

// coldBlocks returns the grid sizes of serve-cold's never-seen requests
// for one kernel: a fixed band below paper scale (384 blocks for every
// mix kernel), from 8 blocks up in steps of one block, or of two for
// srad1, whose grid must tile an even width.
func coldBlocks(kernel string) []int {
	step := 1
	if kernel == "rodinia_srad1" {
		step = 2
	}
	out := make([]int, coldGrids)
	for i := range out {
		out[i] = 8 + step*i
	}
	return out
}

// restarted reports whether serve-cold's restart phase replays op: one of
// the restartGrids smallest grids of its kernel.
func restarted(op Op) bool {
	return op.Blocks < coldBlocks(op.Kernel)[restartGrids]
}

// genSeeds are the generator seeds of validate's held-back kernels: the
// first kernel of each seed's stream. They are fixed; the workload seed
// never reaches the generator.
var genSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
	13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24}

// Op is one unit of client work: one kernel's sweep, one request, or one
// kernel's validation.
type Op struct {
	Kernel  string
	Blocks  int   // 0: the kernel's default grid
	GenSeed int64 // validate: generator seed of a held-back kernel, else 0
	Cfg     tuple
	Policy  string
}

// Unit is the (kernel, grid) work unit an op stands for.
func (o Op) Unit() string { return fmt.Sprintf("%s@%d", o.Kernel, o.Blocks) }

// Plan is the fixed work of one run. Passes run one after another; the
// ops of a pass are issued in order to the workload's clients.
type Plan struct {
	Workload string
	Seed     int64
	Clients  int
	Passes   [][]Op
	// Grid is the sweep's tuple set (sweep only).
	Grid []tuple
}

// Kernels returns the distinct kernels of the plan's ops, sorted.
func (p *Plan) Kernels() []string {
	seen := map[string]bool{}
	var out []string
	for _, op := range p.Ops() {
		if !seen[op.Kernel] {
			seen[op.Kernel] = true
			out = append(out, op.Kernel)
		}
	}
	sort.Strings(out)
	return out
}

// Ops returns every op of the plan in issue order.
func (p *Plan) Ops() []Op {
	var out []Op
	for _, pass := range p.Passes {
		out = append(out, pass...)
	}
	return out
}

// passesPer10s is how many whole passes fill ten seconds on the
// reference host. --seconds scales it, so the same --seconds always means
// the same work.
var passesPer10s = map[string]int{
	"sweep":      7,
	"serve-warm": 1,
	"serve-cold": 6,
	"validate":   1,
}

// warmRounds is the number of rounds in one serve-warm pass; each round
// requests every mix kernel once.
const warmRounds = 150

// NewPlan builds the plan of one run. The seed changes only the order of
// ops and, on the serve workloads, the drawn tuple and policy of each
// request; the multiset of (kernel, grid) units is the same for every
// seed.
func NewPlan(workload string, seed int64, seconds int) (*Plan, error) {
	per10, ok := passesPer10s[workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	if seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1, got %d", seconds)
	}
	passes := (seconds*per10 + 5) / 10
	if passes < 1 {
		passes = 1
	}
	p := &Plan{Workload: workload, Seed: seed, Clients: 2}
	for i := 0; i < passes; i++ {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
		var pass []Op
		switch workload {
		case "sweep":
			// One client: dse.Run already spreads a sweep's points over
			// both CPUs.
			p.Clients = 1
			p.Grid = sweepGrid()
			for _, k := range shuffled(rng, mix) {
				pass = append(pass, Op{Kernel: k})
			}
		case "serve-warm":
			for r := 0; r < warmRounds; r++ {
				for _, k := range shuffled(rng, mix) {
					pass = append(pass, drawRequest(rng, k, 0))
				}
			}
		case "serve-cold":
			var ops []Op
			for _, k := range mix {
				for _, b := range coldBlocks(k) {
					ops = append(ops, drawRequest(rng, k, b))
				}
			}
			rng.Shuffle(len(ops), func(a, b int) { ops[a], ops[b] = ops[b], ops[a] })
			pass = ops
		case "validate":
			// One client: an accuracy.Run is single-threaded, and two in
			// flight would make the peak heap depend on which kernels the
			// seed happens to pair.
			p.Clients = 1
			pass = validateOps(rng)
		}
		p.Passes = append(p.Passes, pass)
	}
	return p, nil
}

// shuffled returns a seeded permutation of names.
func shuffled(rng *rand.Rand, names []string) []string {
	out := append([]string(nil), names...)
	rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// drawRequest draws one /v1/evaluate request for a (kernel, grid) unit.
func drawRequest(rng *rand.Rand, kernel string, blocks int) Op {
	return Op{
		Kernel: kernel,
		Blocks: blocks,
		Cfg: tuple{
			Warps: axisWarps[rng.Intn(len(axisWarps))],
			MSHRs: axisMSHRs[rng.Intn(len(axisMSHRs))],
			BW:    axisBW[rng.Intn(len(axisBW))],
		},
		Policy: policies[rng.Intn(len(policies))],
	}
}

// genName is the name internal/gen gives the first kernel of a seed.
func genName(seed int64) string { return fmt.Sprintf("gen/s%d/i0", seed) }

// validateOps returns the paper set and the held-back generated kernels
// in seeded order.
func validateOps(rng *rand.Rand) []Op {
	var ops []Op
	for _, k := range kernels.PaperNames() {
		ops = append(ops, Op{Kernel: k})
	}
	for _, s := range genSeeds {
		ops = append(ops, Op{Kernel: genName(s), GenSeed: s})
	}
	rng.Shuffle(len(ops), func(a, b int) { ops[a], ops[b] = ops[b], ops[a] })
	return ops
}
