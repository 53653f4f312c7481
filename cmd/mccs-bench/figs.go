package main

import (
	"flag"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"mccs/internal/cluster"
	"mccs/internal/harness"
	"mccs/internal/metrics"
	"mccs/internal/ncclsim"
	"mccs/internal/policy"
	"mccs/internal/sim"
	"mccs/internal/spec"
	"mccs/internal/topo"
	"mccs/internal/workload"
)

// fig2 regenerates Figure 2: the training-time breakdown (idle / memcpy
// / compute / communication) of four synthetic production model
// profiles, measured by running each profile's training loop through
// the MCCS service on the testbed.
func fig2(fs *flag.FlagSet) func(io.Writer) error {
	iters := fs.Int("iters", 5, "iterations per profile")
	return func(w io.Writer) error {
		env, err := harness.NewEnv(harness.EnvConfig{System: ncclsim.MCCS})
		if err != nil {
			return err
		}
		defer env.Close()
		profiles := workload.ProductGroupProfiles()
		results := make([]*workload.Result, len(profiles))
		// Each group trains on its own pair of GPUs (one per rack) so the
		// groups contend on the fabric like co-located production jobs.
		for i, tr := range profiles {
			i := i
			g := func(h topo.HostID, idx int) topo.GPUID { return env.Cluster.Hosts[h].GPUs[idx] }
			gpus := []topo.GPUID{g(topo.HostID(i/2), i%2), g(topo.HostID(2+i/2), i%2)}
			fut := workload.Launch(workload.RunConfig{
				Dep: env.Deployment, App: spec.AppID(tr.Name), Key: tr.Name,
				GPUs: gpus, Trace: tr, Iterations: *iters,
			})
			env.S.Go("collect", func(p *sim.Proc) { results[i] = fut.Wait(p) })
		}
		if err := env.S.Run(); err != nil {
			return err
		}

		fmt.Fprintln(w, "[Fig. 2] training-time breakdown per product group")
		fmt.Fprintf(w, "%-10s %8s %8s %8s %8s\n", "group", "idle", "memcpy", "compute", "comm")
		for i, r := range results {
			if r.Err != nil {
				return fmt.Errorf("profile %d: %w", i, r.Err)
			}
			b := r.Breakdown
			fmt.Fprintf(w, "%-10s %7.1f%% %7.1f%% %7.1f%% %7.1f%%  %s\n",
				strings.TrimPrefix(profiles[i].Name, "group-"),
				100*b.Idle, 100*b.Memcpy, 100*b.Compute, 100*b.Comm,
				bar(b))
		}
		return nil
	}
}

// bar renders the stacked fractions the way the figure does.
func bar(b workload.Breakdown) string {
	const width = 40
	seg := func(f float64, ch byte) string {
		n := int(f*width + 0.5)
		return strings.Repeat(string(ch), n)
	}
	return seg(b.Idle, '.') + seg(b.Memcpy, 'm') + seg(b.Compute, 'c') + seg(b.Comm, '#')
}

// fig3 regenerates Figure 3: the cross-rack flow count of a randomly
// ordered collective ring, normalized to the optimal ring, as a
// function of job size — for 2 hosts/rack (the production trace's
// shape, Fig. 3a) and 4 hosts/rack (Fig. 3b).
func fig3(fs *flag.FlagSet) func(io.Writer) error {
	trials := fs.Int("trials", 2000, "Monte Carlo trials per job size")
	seed := fs.Int64("seed", 1, "random seed")
	return func(w io.Writer) error {
		sizes := []int{8, 16, 32, 64, 128, 256, 512, 1024}
		for _, hostsPerRack := range []int{2, 4} {
			label := "a (empirical shape)"
			if hostsPerRack == 4 {
				label = "b (simulated shape)"
			}
			fmt.Fprintf(w, "\n[Fig. 3%s] 8 GPUs/host, %d hosts/rack — cross-rack ratio of a random ring\n",
				label, hostsPerRack)
			fmt.Fprintf(w, "%-10s %10s %10s %10s\n", "job GPUs", "mean", "worst", "analytic")
			for _, pt := range policy.CrossRackSweep(8, hostsPerRack, sizes, *trials, *seed) {
				fmt.Fprintf(w, "%-10d %10.2f %10.2f %10.2f\n", pt.JobGPUs, pt.Mean, pt.Worst, pt.Analytic)
			}
		}
		return nil
	}
}

// fig7 regenerates Figure 7: an 8-GPU AllReduce job on a ring of
// switches, degraded by a 75 Gbps background flow at t=7.5s and
// restored by a provider-issued ring reversal at t=12s. -autotune
// replaces the scripted reversal with an autotuner pass that reads the
// background flow off the fabric.
func fig7(fs *flag.FlagSet) func(io.Writer) error {
	cfg := harness.DefaultReconfigConfig()
	fs.DurationVar(&cfg.RunFor, "run", cfg.RunFor, "experiment span")
	fs.DurationVar(&cfg.BgStart, "bg", cfg.BgStart, "background flow start")
	bgGbps := fs.Float64("bg-gbps", cfg.BgRate/125e6, "background flow rate (Gbit/s)")
	fs.DurationVar(&cfg.ReconfigAt, "reconfig", cfg.ReconfigAt, "ring reversal time")
	csv := fs.Bool("csv", false, "emit the full time series as CSV")
	sh := harness.InstrumentFlags(fs)
	return func(w io.Writer) error {
		cfg.BgRate = *bgGbps * 125e6
		cfg.Instrument = sh.Instrument
		cfg.Autotune = sh.Autotune
		res, err := harness.RunReconfigShowcase(cfg)
		if err != nil {
			return err
		}
		sh.Report(w)
		if res.Telemetry != nil {
			fmt.Fprintf(w, "  %d samples, %d SLO violations\n", len(res.Telemetry.Samples), len(res.Telemetry.Violations))
		}

		fmt.Fprintf(w, "[Fig. 7] 8-GPU 128MB AllReduce on a 4-switch ring, %d iterations\n", len(res.Series))
		fmt.Fprintf(w, "  phase averages (algorithm bandwidth):\n")
		fmt.Fprintf(w, "    before background flow:     %6.2f GB/s\n", res.Before/1e9)
		fmt.Fprintf(w, "    degraded (bg at %6.2fs):   %6.2f GB/s\n", cfg.BgStart.Seconds(), res.Degraded/1e9)
		how := "reversal"
		if cfg.Autotune {
			how = "autotune"
		}
		fmt.Fprintf(w, "    recovered (%s %4.1fs): %6.2f GB/s\n", how, cfg.ReconfigAt.Seconds(), res.Recovered/1e9)
		if *csv {
			fmt.Fprintln(w, "t_seconds,algbw_bytes_per_sec")
			for _, pt := range res.Series {
				fmt.Fprintf(w, "%.6f,%.0f\n", pt.T.Seconds(), pt.AlgBW)
			}
		}
		return nil
	}
}

// fig8 regenerates Figure 8: per-application bus bandwidth of
// concurrent 128 MB AllReduce tenants in the four Fig. 5b placements,
// under NCCL, NCCL(OR), MCCS(-FFA) and MCCS. The instrumentation flags
// cover the first run's first trial; -autotune tunes every communicator
// before the measured loops (service-mode systems only).
func fig8(fs *flag.FlagSet) func(io.Writer) error {
	bytes := fs.Int64("bytes", 128<<20, "per-iteration AllReduce size")
	iters := fs.Int("iters", 20, "measured iterations")
	warmup := fs.Int("warmup", 4, "warmup iterations")
	trials := fs.Int("trials", 5, "ECMP-salt trials")
	sh := harness.InstrumentFlags(fs)
	return func(w io.Writer) error {
		testbed, err := topo.BuildClos(topo.TestbedConfig())
		if err != nil {
			return err
		}
		in := sh.Instrument
		for setup := 1; setup <= 4; setup++ {
			apps, err := harness.Setup(testbed, setup)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "\n[Fig. 8] setup %d — bus bandwidth (GB/s), mean [p5, p95] over %d trials\n", setup, *trials)
			fmt.Fprintf(w, "%-10s", "system")
			var names []spec.AppID
			for _, a := range apps {
				names = append(names, a.Name)
			}
			sort.Slice(names, func(i, j int) bool { return names[i] < names[j] })
			for _, n := range names {
				fmt.Fprintf(w, " %22s", n)
			}
			fmt.Fprintf(w, " %10s\n", "aggregate")
			for _, sys := range ncclsim.Systems() {
				mcfg := harness.MultiAppConfig{
					System: sys, Apps: apps, Bytes: *bytes,
					Warmup: *warmup, Iters: *iters, Trials: *trials,
					Autotune: sh.Autotune,
				}
				// Instrument only the first run: one recording is the
				// artifact; later runs would overwrite it.
				mcfg.Instrument, in = in, harness.Instrument{}
				res, err := harness.RunMultiApp(mcfg)
				if err != nil {
					return fmt.Errorf("setup %d %v: %w", setup, sys, err)
				}
				fmt.Fprintf(w, "%-10s", sys)
				for _, n := range names {
					s := res.BusBW[n]
					fmt.Fprintf(w, "  %5.2f [%5.2f, %5.2f]", s.Mean/1e9, s.P5/1e9, s.P95/1e9)
				}
				fmt.Fprintf(w, " %10.2f\n", res.Aggregate/1e9)
			}
		}
		sh.Report(w)
		return nil
	}
}

// fig9 regenerates Figure 9: training-workload JCT under ECMP / FFA /
// PFA / PFA+TS, normalized to FFA as in the paper.
func fig9(fs *flag.FlagSet) func(io.Writer) error {
	itersA := fs.Int("iters-a", 30, "VGG (tenant A) iterations")
	itersBC := fs.Int("iters-bc", 30, "GPT (tenants B, C) iterations")
	return func(w io.Writer) error {
		fmt.Fprintln(w, "[Fig. 9] job completion time, setup 3: A=VGG-19 DP (4 GPUs, prio 2),")
		fmt.Fprintln(w, "         B,C=GPT-2.7B TP (2 GPUs each; B prio 1, C prio 0)")
		sols := harness.QoSSolutions()
		results := make([]harness.QoSResult, len(sols))
		for i, sol := range sols {
			res, err := harness.RunQoS(harness.QoSConfig{
				Solution: sol, IterationsA: *itersA, IterationsBC: *itersBC,
			})
			if err != nil {
				return fmt.Errorf("%v: %w", sol, err)
			}
			results[i] = res
		}
		ffa := results[1] // normalization baseline, as in the paper
		fmt.Fprintf(w, "%-8s %28s %28s %28s\n", "solution", "VGG (A)", "GPT (B)", "GPT (C)")
		for i, res := range results {
			fmt.Fprintf(w, "%-8s", sols[i])
			for _, app := range []spec.AppID{"A", "B", "C"} {
				norm := float64(res.JCT[app]) / float64(ffa.JCT[app])
				fmt.Fprintf(w, "      %10v (%.2fx FFA)", res.JCT[app].Round(time.Millisecond), norm)
			}
			fmt.Fprintln(w)
		}
		return nil
	}
}

// fig10 regenerates Figure 10: the throughput timeline under dynamic
// arrivals and policy changes.
func fig10(*flag.FlagSet) func(io.Writer) error {
	return func(w io.Writer) error {
		cfg := harness.DefaultDynamicConfig()
		res, err := harness.RunDynamic(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "[Fig. 10] normalized training throughput with dynamic arrivals and QoS")
		for _, ev := range res.Events {
			fmt.Fprintf(w, "  event %-20s t=%vs\n", ev.Name, ev.T.Seconds())
		}
		// Per-app iteration rate in 5-second buckets.
		bucket := 5 * time.Second
		apps := []spec.AppID{"A", "B", "C"}
		fmt.Fprintf(w, "%-8s", "t(s)")
		for _, app := range apps {
			fmt.Fprintf(w, " %8s", app)
		}
		fmt.Fprintln(w, "   (iterations/s, 5s buckets)")
		for b := 0; b < int(cfg.RunFor/bucket); b++ {
			lo := sim.Time(time.Duration(b) * bucket)
			hi := lo.Add(bucket)
			fmt.Fprintf(w, "%-8d", b*5)
			for _, app := range apps {
				n := 0
				for _, e := range res.IterEnds[app] {
					if e >= lo && e < hi {
						n++
					}
				}
				fmt.Fprintf(w, " %8.2f", float64(n)/bucket.Seconds())
			}
			fmt.Fprintln(w)
		}
		return nil
	}
}

// fig11 regenerates Figure 11: the 768-GPU large-scale simulation
// comparing random rings, optimal rings (OR) and OR with fair flow
// assignment (OR+FFA), under random and compact placement, reporting
// the CDF of per-job AllReduce speedups relative to random rings.
func fig11(fs *flag.FlagSet) func(io.Writer) error {
	cfg := cluster.DefaultConfig()
	fs.IntVar(&cfg.NumJobs, "jobs", cfg.NumJobs, "number of jobs")
	fs.IntVar(&cfg.Iterations, "iters", cfg.Iterations, "AllReduce iterations per job")
	runs := fs.Int("runs", 5, "independent runs (seeds) to average")
	fs.DurationVar(&cfg.MeanArrival, "arrival", cfg.MeanArrival, "mean Poisson inter-arrival")
	csv := fs.Bool("csv", false, "emit the speedup CDFs as CSV")
	return func(w io.Writer) error {
		for _, placement := range []cluster.Placement{cluster.PlacementRandom, cluster.PlacementCompact} {
			var orAll, ffaAll []float64
			for seed := int64(1); seed <= int64(*runs); seed++ {
				run := func(st cluster.Strategy) (*cluster.RunResult, error) {
					c := cfg
					c.Placement, c.Strategy, c.Seed = placement, st, seed
					res, err := cluster.Run(c)
					if err != nil {
						return nil, fmt.Errorf("%v %v seed %d: %w", placement, st, seed, err)
					}
					return res, nil
				}
				var res [3]*cluster.RunResult
				for i, st := range []cluster.Strategy{cluster.StratRandomRing, cluster.StratOR, cluster.StratORFFA} {
					var err error
					if res[i], err = run(st); err != nil {
						return err
					}
				}
				orSp, err := cluster.Speedups(res[0], res[1])
				if err != nil {
					return err
				}
				ffaSp, err := cluster.Speedups(res[0], res[2])
				if err != nil {
					return err
				}
				orAll = append(orAll, orSp...)
				ffaAll = append(ffaAll, ffaSp...)
			}
			fmt.Fprintf(w, "\n[Fig. 11] %v placement — AllReduce speedup vs random ring (%d jobs x %d runs)\n",
				placement, cfg.NumJobs, *runs)
			so := metrics.Summarize(orAll)
			sf := metrics.Summarize(ffaAll)
			fmt.Fprintf(w, "  OR:     mean %.2fx  (p5 %.2fx, p50 %.2fx, p95 %.2fx)\n", so.Mean, so.P5, so.P50, so.P95)
			fmt.Fprintf(w, "  OR+FFA: mean %.2fx  (p5 %.2fx, p50 %.2fx, p95 %.2fx)\n", sf.Mean, sf.P5, sf.P50, sf.P95)
			if *csv {
				fmt.Fprintln(w, "  strategy,speedup,cdf_fraction")
				for _, pt := range metrics.CDF(orAll) {
					fmt.Fprintf(w, "  OR,%.4f,%.4f\n", pt.Value, pt.Fraction)
				}
				for _, pt := range metrics.CDF(ffaAll) {
					fmt.Fprintf(w, "  OR+FFA,%.4f,%.4f\n", pt.Value, pt.Fraction)
				}
			}
		}
		return nil
	}
}
