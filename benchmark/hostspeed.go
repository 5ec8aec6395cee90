package main

import (
	"encoding/binary"
	"fmt"
	"syscall"
	"time"
)

// This host's speed is not constant. On the 2-vCPU VMs the benchmark was
// written on, everything — the compute-bound route enumeration and the
// memory-bound 8x8x8 kernel alike — runs 35-50% slower for minutes at a time
// and then recovers, with the machine otherwise idle. A run is shorter than an
// episode, so raw times from ten runs straddling one spread far wider than
// any regression worth catching. The end-to-end time metrics are therefore
// normalised: the run interleaves a fixed reference kernel with its units and
// scales every time by referenceNominalMS over the reference samples taken
// around it, which reads as "time on a host that runs the reference kernel in
// its nominal time". Raw values are printed beside the normalised ones.

// referenceNominalMS is the reference kernel's wall time on this host class
// when it is not slowed. It only sets the scale on which normalised times are
// read; changing it rescales every normalised metric alike.
const referenceNominalMS = 125.0

const (
	referenceWords = 512 << 10 // a 4 MB table: misses L1 and part of L2
	referenceSteps = 10 << 20
	// referenceEvery spaces the samples taken between units.
	referenceEvery = 1500 * time.Millisecond
)

// hostSpeed samples the reference kernel through a run. No repository code
// runs inside the kernel, so a change under test cannot move it.
type hostSpeed struct {
	table   []byte
	samples []float64 // reference wall, ms
	spent   time.Duration
	last    time.Time
}

// newHostSpeed maps the kernel's table outside the Go heap, so that it adds a
// constant 4 MB to peak_rss_mb and nothing to the collector's pacing.
func newHostSpeed() (*hostSpeed, error) {
	start := time.Now()
	table, err := syscall.Mmap(-1, 0, 8*referenceWords, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("reference kernel table: %w", err)
	}
	for i := 0; i < referenceWords; i++ {
		binary.LittleEndian.PutUint64(table[8*i:], uint64(i)*0x9e3779b97f4a7c15)
	}
	return &hostSpeed{table: table, spent: time.Since(start)}, nil
}

func (h *hostSpeed) close() { _ = syscall.Munmap(h.table) } // the process is about to exit anyway

// sample runs the kernel once: dependent pseudo-random loads and stores over
// the table with an unpredictable branch and a multiply in between — a little
// of everything the simulator does.
func (h *hostSpeed) sample() {
	start := time.Now()
	x, acc := uint64(88172645463325252), uint64(0)
	t := h.table
	for i := 0; i < referenceSteps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		word := t[8*((x>>33)&(referenceWords-1)):]
		v := binary.LittleEndian.Uint64(word)
		if v&1 == 0 {
			acc += v >> 3
		} else {
			acc ^= v
		}
		binary.LittleEndian.PutUint64(word, v+x+acc)
	}
	sink += acc
	d := time.Since(start)
	h.samples = append(h.samples, ms(d))
	h.spent += d
	h.last = time.Now()
}

// sampleIfDue samples when referenceEvery has passed since the last sample.
func (h *hostSpeed) sampleIfDue() {
	if time.Since(h.last) >= referenceEvery {
		h.sample()
	}
}

// mark returns the index the next sample will have, so a caller can ask for
// the median of the samples taken from a point on.
func (h *hostSpeed) mark() int { return len(h.samples) }

// refMS is the median reference time over samples [from, to).
func (h *hostSpeed) refMS(from, to int) float64 { return median(h.samples[from:to]) }

// normTime scales a measured time to the nominal host; normRate a rate.
func normTime(v, refMS float64) float64 { return v * referenceNominalMS / refMS }
func normRate(v, refMS float64) float64 { return v * refMS / referenceNominalMS }

func (h *hostSpeed) describe(from, to int) string {
	return fmt.Sprintf("reference kernel ms %s (nominal %g)", summarize(h.samples[from:to]), referenceNominalMS)
}
