package main

import (
	"math"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The reference box is a 2-vCPU microVM that shares its host's cores,
// last-level cache and memory with neighbours, and its speed moves with
// them for minutes at a time: ten consecutive replay-window runs read
// 0.139 s falling to 0.106 s, and no statistic of one run's passes removes
// that, because a whole run sits inside one regime. So the benchmark
// carries its own yardstick. Between the product's passes it runs two
// small kernels that belong to the benchmark and never change — one that
// lives in registers, one that scatters over a table the size of the
// product's working set — and divides each timing by how much slower
// than their nominal times the kernels ran in the same stretch of the
// run. What is reported is the product's time on the box at its nominal
// speed; a change to the product cannot move the kernels, so it shows in
// full, while a slow quarter of an hour mostly cancels. README.md ("The
// box clock") has the measurements.

const (
	// cpuSteps xorshift steps in registers and memSteps increments
	// scattered over boxTable: about 4 ms each at nominal speed, long
	// enough to time, short enough to run between passes.
	cpuSteps = 2_000_000
	memSteps = 300_000
	// boxTableWords is 64 MB of uint64: far beyond the private caches and
	// about the footprint of the product's larger workloads (replay-window
	// holds 83 MB live), so how fast the kernel runs depends, as it does
	// for them, on how much of the shared cache the neighbours leave.
	boxTableWords = 8 << 20
	// cpuNominal and memNominal are the kernels' median times in the
	// box's usual regime when the benchmark was defined. They only fix
	// the scale (a slowdown of 1 is that regime); any pair of constants
	// cancels out of a comparison of two commits.
	cpuNominal = 3600 * time.Microsecond
	memNominal = 4200 * time.Microsecond
	// boxGap is the least time between two samples inside a loop of
	// passes, so the kernels take under a tenth of the run.
	boxGap = 100 * time.Millisecond
	// sampleRoom is the idle time the live phase's reader wants before
	// its next request is due to fit a sample in.
	sampleRoom = 10 * time.Millisecond
)

// sensitivity is how one timing follows the two kernels: it runs slower
// by cpuSlowdown^cpu x memSlowdown^mem. A timing that is all arithmetic
// has {1, 0}; the more of it waits for cache misses, the larger mem and
// the smaller cpu. mem passes 1 where the product loses more to a crowded
// cache than the kernel does.
type sensitivity struct{ cpu, mem float64 }

// sensitivities is, per workload, each timing's sensitivity when the
// benchmark was defined: the exponents that made runs of one seed, made
// in different regimes of the box, agree best (README.md, "The box
// clock"). They are properties of the product's code as it was then; if a
// change shifts one, the scaling cancels less of the box's drift for
// that timing, and nothing else happens.
type sensitivities struct{ job, ingest, figures, restore sensitivity }

var boxSensitivities = map[string]sensitivities{
	"replay-batch":  {job: sensitivity{0.8, 0.35}, ingest: sensitivity{0.8, 0.35}},
	"replay-window": {job: sensitivity{0, 2.2}, ingest: sensitivity{0, 2.5}},
	"daemon-live": {job: sensitivity{0.4, 0.7}, ingest: sensitivity{0.4, 0.7},
		figures: sensitivity{0.5, 1.1}, restore: sensitivity{0, 0.65}},
	"paper-batch": {job: sensitivity{0.25, 0.7}},
}

var (
	boxTableOnce sync.Once
	boxTable     []uint64
	boxSink      uint64
)

// table maps the memory kernel's table outside the Go heap — on it, the
// table would double the heap the collector paces itself by and so move
// how often the product's passes are collected — and touches every page.
func table() []uint64 {
	boxTableOnce.Do(func() {
		mem, err := syscall.Mmap(-1, 0, boxTableWords*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			panic("benchmark: mapping the box clock's table: " + err.Error())
		}
		boxTable = unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), boxTableWords)
		for i := range boxTable {
			boxTable[i] = uint64(i)
		}
	})
	return boxTable
}

func cpuKernel() uint64 {
	x := uint64(88172645463325252)
	for i := 0; i < cpuSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

func memKernel(tab []uint64) uint64 {
	x := uint64(88172645463325252)
	for i := 0; i < memSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		tab[x&(boxTableWords-1)]++
	}
	return x
}

// boxClock collects kernel samples over one stretch of a run, the one
// whose timings it will scale.
type boxClock struct {
	cpu, mem samples
	last     time.Time
}

// sample runs both kernels once.
func (b *boxClock) sample() {
	tab := table()
	start := time.Now()
	boxSink += cpuKernel()
	mid := time.Now()
	boxSink += memKernel(tab)
	b.last = time.Now()
	b.cpu.add(mid.Sub(start))
	b.mem.add(b.last.Sub(mid))
}

// tick samples if the last sample is at least boxGap old.
func (b *boxClock) tick() {
	if time.Since(b.last) >= boxGap {
		b.sample()
	}
}

// reading is the clock's kernels' median slowdowns against nominal.
type reading struct{ cpu, mem float64 }

func (b *boxClock) read() reading {
	return reading{
		cpu: b.cpu.p50(time.Nanosecond) / float64(cpuNominal),
		mem: b.mem.p50(time.Nanosecond) / float64(memNominal),
	}
}

// report sets the traced run's box.* metrics: the regime the run's
// per-layer timings, which are not scaled, were measured in.
func (b *boxClock) report(r *report) {
	rd := b.read()
	r.set("box.cpu_slowdown", rd.cpu)
	r.set("box.mem_slowdown", rd.mem)
}

// slowdown is how much slower than at nominal speed a timing of the
// given sensitivity ran.
func (rd reading) slowdown(s sensitivity) float64 {
	return math.Pow(rd.cpu, s.cpu) * math.Pow(rd.mem, s.mem)
}
