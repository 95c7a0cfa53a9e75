package core

import (
	"fmt"
	"io"
	"math"
	"strings"
	"text/tabwriter"

	"nocsprint/internal/noc"
	"nocsprint/internal/power"
)

// Experiment is one entry of the experiment registry: a table or figure of
// the paper's evaluation, or an extension study. The nocsprint CLI (text
// and JSON), the nocsprintd job daemon and the golden tests all dispatch
// through the registry, so each experiment and its -fast shaping is
// defined once.
type Experiment struct {
	// Name is the experiment's CLI and job-spec name.
	Name string
	// Alias is a second accepted name for the same entry, or "": fig9 and
	// fig10 come out of one set of simulations.
	Alias string
	// Desc is the one-line description the CLI usage prints.
	Desc string
	// Run computes the experiment's JSON-encodable result. sim carries the
	// sweep plumbing (workers, seed, journal, contexts, checker, telemetry);
	// fast applies the -fast shaping: shrunken windows and shorter sweeps.
	Run func(s *Sprinter, sim NetSimParams, fast bool) (any, error)
	// Text prints a result of Run as the CLI's human-readable table.
	Text func(w io.Writer, s *Sprinter, res any) error
}

// ShapeSim returns sim with the -fast simulation windows when fast is set.
func ShapeSim(sim NetSimParams, fast bool) NetSimParams {
	if fast {
		sim.Warmup, sim.Measure, sim.Drain = 300, 1000, 10000
	}
	return sim
}

// ShapeFig11 returns the fig11 sweep parameters the registry runs: under
// fast, the ShapeSim windows plus a four-rate ladder at three samples.
func ShapeFig11(sim NetSimParams, fast bool) Fig11Params {
	p := Fig11Params{Sim: ShapeSim(sim, fast)}
	if fast {
		p.Rates = []float64{0.05, 0.15, 0.25, 0.35}
		p.Samples = 3
	}
	return p
}

// ShapeTopology returns the topology-comparison parameters the registry
// runs: under fast, the ShapeSim windows plus a four-rate ladder.
func ShapeTopology(sim NetSimParams, fast bool) TopologyParams {
	p := TopologyParams{Sim: ShapeSim(sim, fast)}
	if fast {
		p.Rates = []float64{0.1, 0.3, 0.5, 0.7}
	}
	return p
}

// Experiments returns the registry in display order.
func Experiments() []Experiment { return append([]Experiment(nil), experiments...) }

// LookupExperiment returns the entry whose name or alias is name.
func LookupExperiment(name string) (Experiment, bool) {
	for _, e := range experiments {
		if name != "" && (e.Name == name || e.Alias == name) {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunExperiment runs the experiment named name (or aliased) on a Sprinter
// built from DefaultConfig.
func RunExperiment(name string, sim NetSimParams, fast bool) (any, error) {
	e, ok := LookupExperiment(name)
	if !ok {
		return nil, fmt.Errorf("core: unknown experiment %q", name)
	}
	s, err := New(DefaultConfig())
	if err != nil {
		return nil, err
	}
	return e.Run(s, sim, fast)
}

// ExperimentNames returns every accepted experiment name, aliases
// included, in registry order.
func ExperimentNames() []string {
	var names []string
	for _, e := range experiments {
		names = append(names, e.Name)
		if e.Alias != "" {
			names = append(names, e.Alias)
		}
	}
	return names
}

var experiments = []Experiment{
	{Name: "table1", Desc: "system & interconnect configuration (Table 1)",
		Run:  func(s *Sprinter, _ NetSimParams, _ bool) (any, error) { return s.Config(), nil },
		Text: textTable1},
	{Name: "fig2", Desc: "router power breakdown across V/f corners",
		Run:  func(*Sprinter, NetSimParams, bool) (any, error) { return Fig2RouterPower() },
		Text: textFig2},
	{Name: "fig3", Desc: "chip power breakdown at nominal operation",
		Run:  func(*Sprinter, NetSimParams, bool) (any, error) { return Fig3ChipBreakdown() },
		Text: textFig3},
	{Name: "fig4", Desc: "PARSEC execution time vs core count",
		Run:  func(s *Sprinter, _ NetSimParams, _ bool) (any, error) { return Fig4Scaling(s), nil },
		Text: textFig4},
	{Name: "fig7", Desc: "execution time per sprinting scheme",
		Run:  func(s *Sprinter, _ NetSimParams, _ bool) (any, error) { return Fig7ExecTime(s) },
		Text: textFig7},
	{Name: "fig8", Desc: "core power per sprinting scheme",
		Run:  func(s *Sprinter, _ NetSimParams, _ bool) (any, error) { return Fig8CorePower(s) },
		Text: textFig8},
	{Name: "fig9", Alias: "fig10", Desc: "network latency (fig9) and power (fig10), full vs NoC-sprinting",
		Run: func(s *Sprinter, sim NetSimParams, fast bool) (any, error) {
			return Fig9Fig10Network(s, ShapeSim(sim, fast))
		},
		Text: textFig9},
	{Name: "fig11", Desc: "synthetic uniform-random load sweep (4- and 8-core)",
		Run: func(s *Sprinter, sim NetSimParams, fast bool) (any, error) {
			return Fig11Sweep(s, []int{4, 8}, ShapeFig11(sim, fast))
		},
		Text: textFig11},
	{Name: "fig12", Desc: "steady-state heat maps (dedup, level 4)",
		Run:  func(s *Sprinter, _ NetSimParams, _ bool) (any, error) { return Fig12HeatMaps(s) },
		Text: textFig12},
	{Name: "duration", Desc: "sprint duration analysis (Section 4.4)",
		Run:  func(s *Sprinter, _ NetSimParams, _ bool) (any, error) { return SprintDurations(s) },
		Text: textDuration},
	{Name: "gating", Desc: "extension: runtime power-gating baseline vs NoC-sprinting",
		Run: func(s *Sprinter, sim NetSimParams, fast bool) (any, error) {
			return GatingComparison(s, noc.DefaultGatingConfig(), ShapeSim(sim, fast))
		},
		Text: textGating},
	{Name: "feedback", Desc: "extension: leakage-temperature feedback & sustainable levels",
		Run: func(s *Sprinter, _ NetSimParams, _ bool) (any, error) {
			return LeakageFeedbackAnalysis(s, power.DefaultLeakageFeedback())
		},
		Text: textFeedback},
	{Name: "controller", Desc: "extension: online burst controller with thermal coupling",
		Run:  func(s *Sprinter, _ NetSimParams, _ bool) (any, error) { return ControllerComparison(s) },
		Text: textController},
	{Name: "wires", Desc: "extension: floorplan wire cost & SMART repeated wires (Sec 3.3)",
		Run: func(s *Sprinter, sim NetSimParams, fast bool) (any, error) {
			return FloorplanWireStudy(s, ShapeSim(sim, fast))
		},
		Text: textWires},
	{Name: "scale", Desc: "extension: 4x4 / 6x6 / 8x8 mesh scaling study",
		Run: func(_ *Sprinter, sim NetSimParams, fast bool) (any, error) {
			widths := []int{4, 6, 8}
			if fast {
				widths = []int{4, 6}
			}
			return ScalingStudy(widths, ShapeSim(sim, fast))
		},
		Text: textScale},
	{Name: "sensitivity", Desc: "extension: VC count & buffer depth sweep",
		Run: func(_ *Sprinter, sim NetSimParams, fast bool) (any, error) {
			return SensitivitySweep(ShapeSim(sim, fast))
		},
		Text: textSensitivity},
	{Name: "topology", Desc: "extension: mesh vs torus vs ring-circulant comparison",
		Run: func(s *Sprinter, sim NetSimParams, fast bool) (any, error) {
			return s.TopologyStudy(ShapeTopology(sim, fast))
		},
		Text: textTopology},
	{Name: "dimdark", Desc: "extension: dim silicon (more slow cores) vs dark (few fast)",
		Run: func(s *Sprinter, sim NetSimParams, fast bool) (any, error) {
			return DimVsDark(s, nil, nil, ShapeSim(sim, fast))
		},
		Text: textDimDark},
	{Name: "llc", Desc: "extension: Sec 3.4 LLC policies — bypass paths vs home remap",
		// The point-level abort context reaches the cache-system cycle loop.
		Run: func(s *Sprinter, sim NetSimParams, _ bool) (any, error) {
			return LLCStudy(s, LLCParams{Check: sim.Check, Reference: sim.Reference, Ctx: sim.Abort, Obs: sim.Obs})
		},
		Text: textLLC},
	{Name: "faults", Desc: "extension: fault injection & online sprint-region repair",
		Run: func(s *Sprinter, sim NetSimParams, fast bool) (any, error) {
			p := FaultParams{Sim: sim}
			if fast {
				p.Cycles = 8000
				p.Rates = []float64{2, 8}
			}
			return FaultSweep(s, p)
		},
		Text: textFaults},
}

func header(w io.Writer, title string) {
	fmt.Fprintln(w, strings.Repeat("=", 72))
	fmt.Fprintln(w, title)
	fmt.Fprintln(w, strings.Repeat("=", 72))
}

func table(w io.Writer) *tabwriter.Writer { return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0) }

func textTable1(out io.Writer, _ *Sprinter, res any) error {
	cfg := res.(Config)
	header(out, "Table 1: System and Interconnect configuration")
	w := table(out)
	fmt.Fprintf(w, "core count/freq.\t%d, %.0f GHz\n", cfg.NoC.Nodes(), cfg.Corner.FreqHz/1e9)
	fmt.Fprintf(w, "topology\t%d x %d 2D Mesh\n", cfg.NoC.Width, cfg.NoC.Height)
	fmt.Fprintf(w, "router pipeline\tclassic five-stage\n")
	fmt.Fprintf(w, "VC count\t%d VCs per port\n", cfg.NoC.VCs)
	fmt.Fprintf(w, "buffer depth\t%d buffers per VC\n", cfg.NoC.BufferDepth)
	fmt.Fprintf(w, "packet length\t%d flits\n", cfg.NoC.PacketLength)
	fmt.Fprintf(w, "flit length\t%d bytes\n", cfg.NoC.FlitBits/8)
	fmt.Fprintf(w, "master node\t%d (top-left, next to MC)\n", cfg.Master)
	return w.Flush()
}

func textFig2(out io.Writer, _ *Sprinter, res any) error {
	rows := res.([]Fig2Row)
	header(out, "Figure 2: Router power breakdown (dynamic vs leakage)")
	w := table(out)
	fmt.Fprintln(w, "corner\tdynamic (mW)\tleakage (mW)\ttotal (mW)\tleakage share")
	for _, r := range rows {
		dyn, leak := r.Breakdown.TotalDynamic()*1e3, r.Breakdown.TotalLeakage()*1e3
		fmt.Fprintf(w, "%.2fV / %.1fGHz\t%.3f\t%.3f\t%.3f\t%.1f%%\n",
			r.Corner.VDD, r.Corner.FreqHz/1e9, dyn, leak, dyn+leak, 100*leak/(dyn+leak))
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(out, "\nper-component at each corner (mW dynamic / mW leakage):")
	w = table(out)
	fmt.Fprint(w, "corner")
	for _, c := range power.Components() {
		fmt.Fprintf(w, "\t%s", c)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%.2fV/%.1fGHz", r.Corner.VDD, r.Corner.FreqHz/1e9)
		for _, c := range power.Components() {
			fmt.Fprintf(w, "\t%.2f/%.2f", r.Breakdown.DynamicW[c]*1e3, r.Breakdown.LeakageW[c]*1e3)
		}
		fmt.Fprintln(w)
	}
	return w.Flush()
}

func textFig3(out io.Writer, _ *Sprinter, res any) error {
	header(out, "Figure 3: Chip power breakdown at nominal operation")
	w := table(out)
	fmt.Fprint(w, "cores\ttotal (W)")
	for _, c := range power.ChipComponents() {
		fmt.Fprintf(w, "\t%s", c)
	}
	fmt.Fprintln(w)
	for _, r := range res.([]Fig3Row) {
		fmt.Fprintf(w, "%d\t%.2f", r.Cores, r.Breakdown.Total())
		for _, c := range power.ChipComponents() {
			fmt.Fprintf(w, "\t%.1f%%", 100*r.Breakdown.Share(c))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "(paper: NoC share 18% / 26% / 35% / 42%)")
	return w.Flush()
}

func textFig4(out io.Writer, _ *Sprinter, res any) error {
	rows := res.([]Fig4Row)
	header(out, "Figure 4: PARSEC execution time vs available cores (T(n)/T(1))")
	w := table(out)
	fmt.Fprint(w, "benchmark")
	for _, n := range rows[0].Cores {
		fmt.Fprintf(w, "\tn=%d", n)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%s", r.Benchmark)
		for _, t := range r.NormTime {
			fmt.Fprintf(w, "\t%.3f", t)
		}
		fmt.Fprintln(w)
	}
	return w.Flush()
}

func textFig7(out io.Writer, _ *Sprinter, res any) error {
	r7 := res.(Fig7Result)
	header(out, "Figure 7: Execution time per sprinting scheme (seconds)")
	w := table(out)
	fmt.Fprintln(w, "benchmark\tlevel\tnon-sprint\tfull-sprint\tNoC-sprint\tspeedup(NoC)")
	for _, r := range r7.Rows {
		fmt.Fprintf(w, "%s\t%d\t%.3f\t%.3f\t%.3f\t%.2fx\n",
			r.Benchmark, r.Level, r.NonSprint, r.FullSprint, r.NoCSprint, r.NonSprint/r.NoCSprint)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(out, "\naverage speedup: NoC-sprinting %.2fx (paper 3.6x), full-sprinting %.2fx (paper 1.9x)\n",
		r7.AvgSpeedupNoC, r7.AvgSpeedupFull)
	return nil
}

func textFig8(out io.Writer, _ *Sprinter, res any) error {
	r8 := res.(Fig8Result)
	header(out, "Figure 8: Core power dissipation per sprinting scheme (W)")
	w := table(out)
	fmt.Fprintln(w, "benchmark\tlevel\tfull-sprint\tfine-grained\tNoC-sprint")
	for _, r := range r8.Rows {
		fmt.Fprintf(w, "%s\t%d\t%.1f\t%.1f\t%.1f\n",
			r.Benchmark, r.Level, r.FullSprint, r.FineGrained, r.NoCSprint)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(out, "\naverage core-power saving vs full-sprinting: fine-grained %.1f%% (paper 25.5%%), NoC-sprinting %.1f%% (paper 69.1%%)\n",
		100*r8.SavingFineGrained, 100*r8.SavingNoC)
	return nil
}

func textFig9(out io.Writer, _ *Sprinter, res any) error {
	nr := res.(NetResult)
	header(out, "Figures 9 & 10: Network latency and power, full vs NoC-sprinting")
	w := table(out)
	fmt.Fprintln(w, "benchmark\tlevel\tlat full (cyc)\tlat NoC (cyc)\tpower full (mW)\tpower NoC (mW)")
	for _, r := range nr.Rows {
		fmt.Fprintf(w, "%s\t%d\t%.1f\t%.1f\t%.2f\t%.2f\n",
			r.Benchmark, r.Level, r.LatencyFull, r.LatencyNoC, r.PowerFull*1e3, r.PowerNoC*1e3)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(out, "\naverage latency reduction %.1f%% (paper 24.5%%); average network power saving %.1f%% (paper 71.9%%)\n",
		100*nr.LatencyReduction, 100*nr.PowerSaving)
	return nil
}

func textFig11(out io.Writer, _ *Sprinter, res any) error {
	header(out, "Figure 11: Uniform-random sweep, NoC-sprinting vs full-sprinting")
	for _, ser := range res.([]Fig11Series) {
		fmt.Fprintf(out, "\n-- %d-core sprinting --\n", ser.Level)
		w := table(out)
		fmt.Fprintln(w, "rate\tlat NoC\tlat full\tpow NoC (mW)\tpow full (mW)\tsaturated")
		for _, pt := range ser.Points {
			sat := ""
			if pt.SaturatedNoC {
				sat += "NoC "
			}
			if pt.SaturatedFull {
				sat += "full"
			}
			fmt.Fprintf(w, "%.2f\t%.1f\t%.1f\t%.2f\t%.2f\t%s\n",
				pt.Rate, pt.LatencyNoC, pt.LatencyFull, pt.PowerNoC*1e3, pt.PowerFull*1e3, sat)
		}
		if err := w.Flush(); err != nil {
			return err
		}
		fmt.Fprintf(out, "pre-saturation: latency cut %.1f%%, power cut %.1f%%\n",
			100*ser.PreSatLatencyCut, 100*ser.PreSatPowerCut)
	}
	fmt.Fprintln(out, "\n(paper: latency -45.1%/-16.1%, power -62.1%/-25.9% for 4-/8-core)")
	return nil
}

// textFig12 renders each case's per-tile mean temperatures as an ASCII grid.
func textFig12(out io.Writer, s *Sprinter, res any) error {
	header(out, "Figure 12: Steady-state heat maps (dedup, optimal level 4)")
	grid := s.cfg.Grid
	paper := []float64{358.3, 347.79, 343.81}
	for i, c := range res.([]Fig12Case) {
		fmt.Fprintf(out, "\n%s: peak %.2f K (paper %.2f K)\n", c.Name, c.PeakK, paper[i])
		for ty := 0; ty < grid.H; ty++ {
			for tx := 0; tx < grid.W; tx++ {
				fmt.Fprintf(out, " %6.1f", c.Map.TileMean(tx, ty, grid.Sub))
			}
			fmt.Fprintln(out)
		}
	}
	return nil
}

func textDuration(out io.Writer, _ *Sprinter, res any) error {
	dr := res.(DurationResult)
	header(out, "Section 4.4: Sprint duration (seconds)")
	fsec := func(v float64) string {
		if math.IsInf(v, 1) {
			return "sustainable"
		}
		return fmt.Sprintf("%.2f", v)
	}
	w := table(out)
	fmt.Fprintln(w, "benchmark\tlevel\tfull-sprint (s)\tNoC-sprint (s)\tgain\tphases (1/2/3)")
	for _, r := range dr.Rows {
		gain := "-"
		if !math.IsInf(r.NoCSprint, 1) && !math.IsInf(r.FullSprint, 1) {
			gain = fmt.Sprintf("+%.1f%%", 100*(r.NoCSprint/r.FullSprint-1))
		}
		fmt.Fprintf(w, "%s\t%d\t%s\t%s\t%s\t%.2f/%.2f/%.2f\n",
			r.Benchmark, r.Level, fsec(r.FullSprint), fsec(r.NoCSprint), gain,
			r.Phases.Phase1, r.Phases.Phase2, r.Phases.Phase3)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(out, "\naverage sprint-duration increase: +%.1f%% (paper +55.4%%)\n", 100*dr.AvgIncrease)
	return nil
}

func textGating(out io.Writer, _ *Sprinter, res any) error {
	gr := res.(GatingResult)
	header(out, "Extension: network power management — none vs runtime gating vs NoC-sprinting")
	w := table(out)
	fmt.Fprintln(w, "benchmark\tlevel\tlat none\tlat runtime\tlat NoC\tpow none (mW)\tpow runtime\tpow NoC\twakeups\tshort-offs")
	for _, r := range gr.Rows {
		fmt.Fprintf(w, "%s\t%d\t%.1f\t%.1f\t%.1f\t%.2f\t%.2f\t%.2f\t%d\t%d\n",
			r.Benchmark, r.Level, r.LatNone, r.LatRuntime, r.LatNoC,
			r.PowNone*1e3, r.PowRuntime*1e3, r.PowNoC*1e3, r.Wakeups, r.ShortOffs)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(out, "\naverage network power saving: runtime gating %.1f%%, NoC-sprinting %.1f%%\n",
		100*gr.SavingRuntime, 100*gr.SavingNoC)
	fmt.Fprintf(out, "average latency penalty of runtime gating: +%.1f%% (NoC-sprinting: none — it shortens paths instead)\n",
		100*gr.PenaltyRuntime)
	return nil
}

func textFeedback(out io.Writer, _ *Sprinter, res any) error {
	fr := res.(FeedbackResult)
	header(out, "Extension: leakage-temperature feedback — sustainable sprint levels")
	w := table(out)
	fmt.Fprintln(w, "level\tbase power (W)\tsteady T no-FB (K)\tsteady T with-FB (K)\tamplification\tsustainable")
	for _, r := range fr.Rows {
		state := "yes"
		if !r.SustainableFB {
			state = "RUNAWAY"
		}
		fmt.Fprintf(w, "%d\t%.1f\t%.1f\t%.1f\t%.3f\t%s\n",
			r.Level, r.BasePowerW, r.NoFeedbackK, r.WithFeedback.TempK, r.WithFeedback.Amplification, state)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(out, "\nmax indefinitely-sustainable level: %d without feedback, %d with feedback\n",
		fr.MaxLevelNoFB, fr.MaxLevelFB)
	return nil
}

func textController(out io.Writer, _ *Sprinter, res any) error {
	header(out, "Extension: online sprint controller on a bursty trace")
	w := table(out)
	fmt.Fprintln(w, "scheme\tavg response (s)\tmakespan (s)\tenergy (J)\tpeak (K)\tsprint (s)\tthrottled (s)")
	for _, r := range res.([]ControllerRow) {
		fmt.Fprintf(w, "%s\t%.2f\t%.2f\t%.0f\t%.1f\t%.2f\t%.2f\n",
			r.Scheme, r.AvgResponseS, r.MakespanS, r.EnergyJ, r.PeakK, r.SprintS, r.ThrottledS)
	}
	return w.Flush()
}

func textWires(out io.Writer, _ *Sprinter, res any) error {
	header(out, "Extension: floorplan wire cost and SMART repeated wires (Section 3.3)")
	w := table(out)
	fmt.Fprintln(w, "configuration\tavg latency (cyc)\tpeak temp (K)\tslowest link (cyc)")
	for _, c := range res.([]WireCase) {
		fmt.Fprintf(w, "%s\t%.1f\t%.2f\t%d\n", c.Name, c.AvgLatency, c.PeakK, c.MaxLinkCycles)
	}
	return w.Flush()
}

func textScale(out io.Writer, _ *Sprinter, res any) error {
	header(out, "Extension: mesh scaling (dark silicon grows with core count)")
	w := table(out)
	fmt.Fprintln(w, "mesh\tcores\tNoC share @nominal\tsprint level\tlatency cut\tnet power saving")
	for _, r := range res.([]ScaleRow) {
		fmt.Fprintf(w, "%dx%d\t%d\t%.1f%%\t%d\t%.1f%%\t%.1f%%\n",
			r.Width, r.Width, r.Nodes, 100*r.NoCShareNominal, r.Level,
			100*r.LatencyCut, 100*r.PowerSaving)
	}
	return w.Flush()
}

func textSensitivity(out io.Writer, _ *Sprinter, res any) error {
	header(out, "Extension: VC count / buffer depth sensitivity (Table 1 knobs)")
	w := table(out)
	fmt.Fprintln(w, "VCs\tbuffer depth\tsaturation (flits/cyc/node)\tlow-load latency (cyc)")
	for _, r := range res.([]SensitivityRow) {
		fmt.Fprintf(w, "%d\t%d\t%.1f\t%.1f\n", r.VCs, r.BufferDepth, r.SaturationRate, r.ZeroLoadLatency)
	}
	return w.Flush()
}

func textTopology(out io.Writer, _ *Sprinter, res any) error {
	header(out, "Extension: topology comparison at matched router radix")
	w := table(out)
	fmt.Fprintln(w, "topology\trouting\tnodes\tports\tbisection links\tzero-load lat (cyc)\tsaturation (flits/cyc/node)\tlow-load power (W)")
	for _, r := range res.([]TopoRow) {
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\t%.1f\t%.1f\t%.3f\n",
			r.Spec, r.Routing, r.Nodes, r.Ports, r.BisectionLinks,
			r.ZeroLoadLatency, r.SaturationRate, r.LowLoadPowerW)
	}
	return w.Flush()
}

func textDimDark(out io.Writer, _ *Sprinter, res any) error {
	header(out, "Extension: dim silicon vs dark silicon under a power budget")
	w := table(out)
	fmt.Fprintln(w, "budget (W)\tbenchmark\tdark: level@2GHz perf\tdim: level@corner perf\twinner")
	for _, pt := range res.([]DimDarkPoint) {
		winner := "dark"
		if pt.DimWins {
			winner = "DIM"
		}
		dim := "-"
		if pt.DimLevel > 0 {
			dim = fmt.Sprintf("%d@%.2fV/%.1fGHz %.2f", pt.DimLevel, pt.DimCorner.VDD, pt.DimCorner.FreqHz/1e9, pt.DimPerf)
		}
		fmt.Fprintf(w, "%.0f\t%s\t%d %.2f\t%s\t%s\n",
			pt.BudgetW, pt.Benchmark, pt.DarkLevel, pt.DarkPerf, dim, winner)
	}
	return w.Flush()
}

func textLLC(out io.Writer, _ *Sprinter, res any) error {
	header(out, "Extension: Section 3.4 — shared LLC under network power gating")
	w := table(out)
	fmt.Fprintln(w, "configuration\tAMAT (cyc)\tL2 miss rate\tbypass transfers\tnet power (mW)\tcycles")
	for _, r := range res.([]LLCRow) {
		fmt.Fprintf(w, "%s\t%.1f\t%.3f\t%d\t%.2f\t%d\n",
			r.Name, r.AMAT, r.L2MissRate, r.BypassTransfers, r.NetPowerW*1e3, r.Cycles)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(out, "\n(level-4 sprint; working set sized to fit all 16 banks but overflow 4)")
	return nil
}

func textFaults(out io.Writer, _ *Sprinter, res any) error {
	header(out, "Extension: fault injection & online sprint-region repair")
	w := table(out)
	fmt.Fprintln(w, "rate/10k\tfaults (P/T/L/trip)\tavail\tdelivered\tdropped\tdrop rate\tlat (cyc)\tfinal level\tmaster\tconvex\trepairs")
	for _, pt := range res.([]FaultPoint) {
		fmt.Fprintf(w, "%.0f\t%d (%d/%d/%d/%d)\t%.1f%%\t%d\t%d\t%.3f%%\t%.1f\t%d\t%d\t%v\t%d\n",
			pt.Rate, pt.Faults, pt.Permanent, pt.Transient, pt.LinkFaults, pt.Trips,
			100*pt.Availability, pt.Delivered, pt.Dropped, 100*pt.DropRate,
			pt.AvgLatency, pt.FinalLevel, pt.FinalMaster, pt.FinalConvex, pt.Repairs)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(out, "\ngovernor policy: permanent fault -> region re-formed from the activation")
	fmt.Fprintln(out, "order over survivors (new master elected if the master died); transient")
	fmt.Fprintln(out, "fault -> capped exponential-backoff resume; thermal trip -> sprint level")
	fmt.Fprintln(out, "stepped down. Every repair quiesces and drains the fabric first, so no")
	fmt.Fprintln(out, "flit is ever silently lost: undeliverable traffic lands in `dropped`.")
	return nil
}
