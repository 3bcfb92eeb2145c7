// Command brb-sim runs the BRB simulation experiments and prints the
// tables of DESIGN.md §3.
//
// Usage:
//
//	brb-sim figure2   [flags]   # the paper's Figure 2
//	brb-sim loadsweep [flags]   # A1: p99 vs load
//	brb-sim fanoutsweep [flags] # A2: latency vs fan-out
//	brb-sim intervalsweep [flags] # A3: adaptation-interval sensitivity
//	brb-sim replicasweep [flags]  # A4: replication factor
//	brb-sim variants  [flags]   # A5: assignment variants & baselines
//	brb-sim partitionsweep [flags] # A7: sharded-cluster scenario
//	brb-sim trace     [flags]   # workload statistics
//	brb-sim run -strategy NAME [flags] # one run, full summary
//
// Common flags: -tasks, -seeds, -load, -fanout, -clients, -servers,
// -cores, -rate, -netlat.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/brb-repro/brb/internal/engine"
	"github.com/brb-repro/brb/internal/experiments"
	"github.com/brb-repro/brb/internal/metrics"
	"github.com/brb-repro/brb/internal/sim"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	cfg := engine.Defaults()
	tasks := fs.Int("tasks", cfg.Tasks, "tasks per run (paper: 500000)")
	seeds := fs.Int("seeds", 6, "number of seeds (paper: 6)")
	load := fs.Float64("load", cfg.Load, "offered load as a fraction of capacity")
	fanout := fs.Float64("fanout", cfg.MeanFanout, "mean task fan-out")
	clients := fs.Int("clients", cfg.Clients, "application servers")
	servers := fs.Int("servers", cfg.Servers, "storage servers")
	cores := fs.Int("cores", cfg.Cores, "cores per server")
	rate := fs.Float64("rate", cfg.ServiceRate, "per-core service rate (req/s)")
	netlat := fs.Duration("netlat", time.Duration(cfg.NetOneWay), "one-way network latency")
	strategy := fs.String("strategy", "EqualMax-Credits", "strategy for 'run'")
	sizeAlpha := fs.Float64("size-alpha", 0, "value-size Pareto alpha override")
	sizeMin := fs.Float64("size-min", 0, "value-size minimum override (bytes)")
	sizeMax := fs.Float64("size-max", 0, "value-size maximum override (bytes)")
	partitions := fs.Int("partitions", 0, "data partitions / replica groups (0 = one per server; >servers = sharded-cluster scenario)")
	burstProb := fs.Float64("burst-prob", cfg.BurstProb, "playlist-burst task probability")
	_ = fs.Parse(os.Args[2:])

	cfg.Tasks = *tasks
	cfg.Load = *load
	cfg.MeanFanout = *fanout
	cfg.Clients = *clients
	cfg.Servers = *servers
	cfg.Cores = *cores
	cfg.ServiceRate = *rate
	cfg.NetOneWay = sim.Time(*netlat)
	cfg.SizeAlpha = *sizeAlpha
	cfg.SizeMin = *sizeMin
	cfg.SizeMax = *sizeMax
	cfg.Partitions = *partitions
	cfg.BurstProb = *burstProb

	seedList := experiments.DefaultSeeds(*seeds)
	start := time.Now()
	var err error
	switch cmd {
	case "figure2":
		var tbl *metrics.Table
		tbl, err = experiments.Figure2(cfg, seedList)
		if err == nil {
			fmt.Print(tbl.String())
			fmt.Println()
			fmt.Println(experiments.Claims(tbl).String())
		}
	case "loadsweep":
		var tbl *metrics.Table
		tbl, err = experiments.LoadSweep(cfg, seedList, []float64{0.5, 0.6, 0.7, 0.8, 0.9})
		if err == nil {
			fmt.Print(tbl.String())
		}
	case "fanoutsweep":
		var tbl *metrics.Table
		tbl, err = experiments.FanoutSweep(cfg, seedList, []float64{4, 8.6, 16, 32})
		if err == nil {
			fmt.Print(tbl.String())
		}
	case "intervalsweep":
		var tbl *metrics.Table
		tbl, err = experiments.IntervalSweep(cfg, seedList, []sim.Time{
			250 * sim.Millisecond, 500 * sim.Millisecond, sim.Second, 2 * sim.Second, 4 * sim.Second})
		if err == nil {
			fmt.Print(tbl.String())
		}
	case "replicasweep":
		var tbl *metrics.Table
		tbl, err = experiments.ReplicationSweep(cfg, seedList, []int{1, 2, 3})
		if err == nil {
			fmt.Print(tbl.String())
		}
	case "variants":
		var tbl *metrics.Table
		tbl, err = experiments.Variants(cfg, seedList)
		if err == nil {
			fmt.Print(tbl.String())
		}
	case "partitionsweep":
		var tbl *metrics.Table
		tbl, err = experiments.PartitionSweep(cfg, seedList, []int{cfg.Servers, 3 * cfg.Servers, 9 * cfg.Servers})
		if err == nil {
			fmt.Print(tbl.String())
		}
	case "noisesweep":
		var tbl *metrics.Table
		tbl, err = experiments.NoiseSweep(cfg, seedList, []float64{0, 0.3, 0.6, 1.0})
		if err == nil {
			fmt.Print(tbl.String())
		}
	case "trace":
		st, terr := experiments.TraceStats(cfg)
		err = terr
		if err == nil {
			fmt.Printf("tasks=%d requests=%d meanFanout=%.2f maxFanout=%d\n",
				st.Tasks, st.Requests, st.MeanFanout, st.MaxFanout)
			fmt.Printf("meanSize=%.0fB meanService=%.1fµs horizon=%.2fs taskRate=%.0f/s\n",
				st.MeanSize, st.MeanService/1e3, st.HorizonSec, st.TaskRatePerS)
			fmt.Printf("effectiveLoad=%.3f meanForecastErr=%.1f%% groups=%d\n",
				st.EffectiveLoad, st.MeanEstErrPct, st.Groups)
		}
	case "run":
		factories := experiments.Figure2Strategies()
		f, ok := factories[*strategy]
		if !ok {
			err = fmt.Errorf("unknown strategy %q; known: %s", *strategy,
				strings.Join(experiments.SortedNames(factories), ", "))
			break
		}
		res, rerr := engine.Run(cfg, f())
		err = rerr
		if err == nil {
			fmt.Printf("strategy=%s\ntask:    %s\nrequest: %s\nutil=%.3f maxQ=%d events=%d simSec=%.2f wall=%s\n",
				res.Strategy, res.TaskLatency, res.RequestLatency,
				res.MeanUtilization, res.MaxServerQueue, res.Events, res.SimulatedSeconds,
				time.Since(start).Round(time.Millisecond))
		}
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "brb-sim:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "(wall time %s)\n", time.Since(start).Round(time.Millisecond))
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: brb-sim <figure2|loadsweep|fanoutsweep|intervalsweep|replicasweep|variants|noisesweep|partitionsweep|trace|run> [flags]`)
}
