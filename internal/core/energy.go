package core

import (
	"fmt"
	"io"

	"anton2/internal/exp"
	"anton2/internal/machine"
	"anton2/internal/packet"
	"anton2/internal/power"
	"anton2/internal/route"
	"anton2/internal/sim"
	"anton2/internal/topo"
)

// PayloadKind selects the Figure 13 payload patterns.
type PayloadKind int

// Figure 13 payload patterns.
const (
	PayloadZeros PayloadKind = iota
	PayloadOnes
	PayloadRandom
)

func (p PayloadKind) String() string {
	return [...]string{"zeros", "ones", "random"}[p]
}

// EnergyConfig describes a Section 4.5 router-energy measurement: a single
// core streams single-flit packets around a circuitous on-chip route at a
// controlled injection rate with maximized activation rate; router power is
// recovered by subtracting a short-route run from a long-route run, with
// power.PaperModel assigning energy to the counted events (the simulation's
// ground truth, standing in for the voltage-regulator telemetry).
type EnergyConfig struct {
	Machine machine.Config
	// RateNum/RateDen is the injection rate r = num/den.
	RateNum, RateDen int
	Payload          PayloadKind
	// Flits is the stream length measured.
	Flits int
}

// EnergyPoint is one measured per-flit energy.
type EnergyPoint struct {
	Rate      float64
	Payload   PayloadKind
	PerFlitPJ float64
	// Stream statistics for model fitting.
	H, N, AOverR float64
}

// loopNodes returns the clockwise perimeter cycle of the mesh starting and
// ending at (0,0). A simple cycle contains no opposite-direction channel
// pair, so the cycle and its reverse are channel-disjoint: a continuous
// stream around both never loads any directed channel twice and therefore
// cannot contend with itself.
func loopNodes() []topo.MeshCoord {
	var seq []topo.MeshCoord
	for u := 0; u < topo.MeshW; u++ {
		seq = append(seq, topo.MeshCoord{U: u, V: 0})
	}
	for v := 1; v < topo.MeshH; v++ {
		seq = append(seq, topo.MeshCoord{U: topo.MeshW - 1, V: v})
	}
	for u := topo.MeshW - 2; u >= 0; u-- {
		seq = append(seq, topo.MeshCoord{U: u, V: topo.MeshH - 1})
	}
	for v := topo.MeshH - 2; v >= 0; v-- {
		seq = append(seq, topo.MeshCoord{U: 0, V: v})
	}
	return seq
}

// loopRoute builds a source route from the home endpoint around a closed
// mesh loop and back. The short variant makes 4 router hops beyond
// injection; the long one 24 (clockwise perimeter plus counterclockwise
// perimeter). The 20-hop difference plays the role of the paper's 3-hop vs
// 35-hop subtraction; both routes use each directed channel at most once,
// so the stream cannot overload a revisited channel or perturb its own
// activation pattern.
func loopRoute(chip *topo.Chip, long bool, homeEp int) []uint8 {
	var seq []topo.MeshCoord
	if long {
		fwd := loopNodes()
		seq = append(seq, fwd...)
		// Append the reverse walk: it uses exactly the opposite
		// directed channels, keeping the union duplicate-free.
		for i := len(fwd) - 2; i >= 0; i-- {
			seq = append(seq, fwd[i])
		}
	} else {
		seq = []topo.MeshCoord{
			{U: 0, V: 0}, {U: 1, V: 0}, {U: 2, V: 0}, {U: 1, V: 0}, {U: 0, V: 0},
		}
	}
	ports := make([]uint8, 0, len(seq))
	for i := 0; i+1 < len(seq); i++ {
		r := chip.RouterAt(seq[i])
		var dir topo.MeshDir
		switch {
		case seq[i+1].U == seq[i].U+1:
			dir = topo.UPos
		case seq[i+1].U == seq[i].U-1:
			dir = topo.UNeg
		case seq[i+1].V == seq[i].V+1:
			dir = topo.VPos
		default:
			dir = topo.VNeg
		}
		ports = append(ports, uint8(r.MeshPort(dir)))
	}
	ports = append(ports, uint8(chip.RouterAt(seq[len(seq)-1]).EndpointPort(homeEp)))
	return ports
}

// measureStream drives one stream and returns its router-energy counters.
func measureStream(cfg EnergyConfig, long bool) (power.Counters, error) {
	mcfg := cfg.Machine
	mcfg.TrackEnergy = true
	m, _, err := BuildMachine(mcfg)
	if err != nil {
		return power.Counters{}, err
	}
	tm := m.Topo
	chip := tm.Chip
	start := topo.MeshCoord{U: 0, V: 0}
	homeEp := chip.CoreEndpoint(start)
	src := topo.NodeEp{Node: 0, Ep: homeEp}
	ports := loopRoute(chip, long, homeEp)

	rng := sim.NewRNG(mcfg.Seed, "energy-payload")
	mkPayload := func() []byte {
		b := make([]byte, packet.CommonPayloadBytes)
		switch cfg.Payload {
		case PayloadOnes:
			for i := range b {
				b[i] = 0xFF
			}
		case PayloadRandom:
			rng.Read(b)
		}
		return b
	}

	offsets := power.StreamGaps(cfg.RateNum, cfg.RateDen)
	period := uint64(cfg.RateDen)
	sent := 0
	ep := m.Endpoint(src)
	ep.Source = func() *packet.Packet {
		if sent >= cfg.Flits {
			return nil
		}
		cycle := uint64(sent/len(offsets))*period + uint64(offsets[sent%len(offsets)])
		p := m.MakePacket(src, src, route.Choices{Order: topo.AllDimOrders[0], Ties: [3]int8{1, 1, 1}}, route.ClassRequest, 0, 1)
		p.SourceRoute = ports
		p.Payload = mkPayload()
		p.NotBefore = cycle + 1 // absolute schedule; +1 keeps NotBefore nonzero
		sent++
		return p
	}
	total := uint64(cfg.Flits)
	if _, err := m.RunUntilDelivered(total, 50_000_000); err != nil {
		return power.Counters{}, fmt.Errorf("core: energy stream (long=%v): %w", long, err)
	}
	if err := m.FinishChecks(); err != nil {
		return power.Counters{}, fmt.Errorf("core: energy stream (long=%v): %w", long, err)
	}

	// Router energy: sum counters over channels driven by routers.
	var c power.Counters
	for id := 0; id < tm.NumChannels(); id++ {
		e := m.Chan(id).Energy()
		if e == nil || tm.IsTorusChan(id) {
			continue
		}
		_, ic := tm.IntraChanOf(id)
		if ic.From.Kind != topo.LocRouter {
			continue
		}
		c.Add(power.Counters(*e))
	}
	return c, nil
}

// RunEnergy performs the two-route subtraction of Section 4.5: a 3-router
// and a 35-router stream at the same rate and payload; per-flit, per-hop
// energy is the counter difference over the hop difference.
func RunEnergy(cfg EnergyConfig) (EnergyPoint, error) {
	cShort, err := measureStream(cfg, false)
	if err != nil {
		return EnergyPoint{}, err
	}
	cLong, err := measureStream(cfg, true)
	if err != nil {
		return EnergyPoint{}, err
	}
	// Hop counts come from the route lengths themselves (one router
	// output decision per entry).
	chip := topo.DefaultChip()
	home := chip.CoreEndpoint(topo.MeshCoord{U: 0, V: 0})
	hopsShort := len(loopRoute(chip, false, home))
	hopsLong := len(loopRoute(chip, true, home))

	eShort := power.PaperModel.WindowEnergy(cShort)
	eLong := power.PaperModel.WindowEnergy(cLong)
	r := float64(cfg.RateNum) / float64(cfg.RateDen)
	pt := EnergyPoint{
		Rate:      r,
		Payload:   cfg.Payload,
		AOverR:    power.MaxActivationRate(r) / r,
		PerFlitPJ: (eLong - eShort) / float64(hopsLong-hopsShort) / float64(cfg.Flits),
	}

	// Per-hop stream statistics from the same subtraction: the counter
	// differences isolate the added hops, exactly as the power
	// subtraction does, so the fit regresses measured energy on measured
	// per-hop Hamming distance, set bits, and activation ratio.
	if dF := float64(cLong.Flits - cShort.Flits); dF > 0 {
		pt.H = float64(cLong.HammingSum-cShort.HammingSum) / dF
		pt.N = float64(cLong.SetBitsSum-cShort.SetBitsSum) / dF
		pt.AOverR = float64(cLong.Activations-cShort.Activations) / dF
	}
	return pt, nil
}

// fitEnergyModel refits the Section 4.5 model to measured points.
func fitEnergyModel(points []EnergyPoint) power.Model {
	samples := make([]power.Sample, len(points))
	for i, p := range points {
		samples[i] = power.Sample{H: p.H, N: p.N, AOverR: p.AOverR, Energy: p.PerFlitPJ}
	}
	return power.Fit(samples)
}

// energyRates is the Figure 13 injection-rate sweep.
var energyRates = [][2]int{{1, 8}, {1, 4}, {1, 2}, {5, 8}, {3, 4}, {7, 8}, {1, 1}}

// The energy family (Figure 13). Axes: Payload, Flits. Every point measures
// the single-node loop machine; the rate sweep is the figure's, fixed.
func init() {
	fig13 := func(flits int) []Axes {
		var panels []Axes
		for _, payload := range []PayloadKind{PayloadZeros, PayloadOnes, PayloadRandom} {
			panels = append(panels, Axes{Payload: payload, Flits: flits})
		}
		return panels
	}
	register(&Family{
		Name:   "energy",
		Figure: "fig13",
		Title:  "Figure 13: router energy vs injection rate",
		Paper:  "E = 42.7 + 0.837h + (34.4 + 0.250n)(a/r) pJ; energy falls as rate rises past 0.5",
		Full:   fig13(1200),
		Quick:  fig13(400),
		Check: func(a *Axes) error {
			if a.Flits == 0 {
				a.Flits = 400
			}
			if a.Flits < 0 {
				return badAxis("flits", "must be positive, got %d", a.Flits)
			}
			return nil
		},
		Points: func(Axes) (int, string) { return len(energyRates), "flits" },
		Spec: func(a Axes) *exp.Spec {
			return exp.NewSpec("serve-energy").Add("payload", a.Payload).Add("flits", a.Flits)
		},
		Jobs: func(a Axes, mutate func(*machine.Config)) []exp.Job {
			jobs := make([]exp.Job, 0, len(energyRates))
			for _, r := range energyRates {
				mc := machine.DefaultConfig(topo.Shape3(1, 1, 1))
				mutate(&mc)
				jobs = append(jobs, EnergyJob(EnergyConfig{
					Machine: mc,
					RateNum: r[0], RateDen: r[1],
					Payload: a.Payload, Flits: a.Flits,
				}))
			}
			return jobs
		},
		Render: func(w io.Writer, panels []Axes, rs []exp.Result) {
			fmt.Fprintf(w, "measured: %-7s", "rate")
			for _, r := range energyRates {
				fmt.Fprintf(w, " %6.3f", float64(r[0])/float64(r[1]))
			}
			fmt.Fprintln(w)
			var all []EnergyPoint
			for pi, a := range panels {
				fmt.Fprintf(w, "          %-7s", a.Payload)
				for _, r := range rs[pi*len(energyRates) : (pi+1)*len(energyRates)] {
					if r.Err != nil {
						fmt.Fprintf(w, " %6s", "FAIL")
						continue
					}
					pt := r.Value.(EnergyPoint)
					fmt.Fprintf(w, " %6.1f", pt.PerFlitPJ)
					all = append(all, pt)
				}
				fmt.Fprintln(w, " pJ/flit")
			}
			if len(all) == len(rs) {
				m := fitEnergyModel(all)
				fmt.Fprintf(w, "          refit: E = %.1f + %.3fh + (%.1f + %.3fn)(a/r) pJ\n",
					m.Fixed, m.PerBitFlip, m.PerActivation, m.PerActSetBit)
			}
		},
	})
}
