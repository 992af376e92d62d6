// flexran-master runs a standalone FlexRAN master controller serving the
// FlexRAN protocol over TCP, with a monitoring application registered.
// Agent-enabled eNodeBs (cmd/flexran-enb) connect to it.
//
// The control loop runs on the deadline-accounted real-time engine:
// SIGUSR1 (or -profile, which also prints on every report interval) dumps
// the deadline-miss counters and per-leg latency histograms, and shutdown
// (SIGINT or SIGTERM) flushes a final dump before exiting.
//
// The northbound HTTP/JSON API (-api) exposes the RIB, the app registry,
// the live watch stream (SSE) and sequenced actuation; cmd/flexran-ctl is
// its CLI client. -cmd-retry arms reliable command delivery so actuation
// outcomes can be awaited via /cmd/{seq}.
//
// Usage:
//
//	flexran-master [-addr :2210] [-api :9090] [-cmd-retry 0]
//	               [-stats-period 1] [-sync-period 1] [-profile]
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"flexran"
	"flexran/internal/apps"
)

func main() {
	addr := flag.String("addr", flexran.DefaultMasterAddr, "listen address for agent connections")
	api := flag.String("api", "", "northbound HTTP API listen address (empty disables, e.g. :9090)")
	statsPeriod := flag.Int("stats-period", 1, "statistics reporting period in TTIs (0 disables)")
	syncPeriod := flag.Int("sync-period", 1, "subframe sync period in TTIs (0 disables)")
	cmdRetry := flag.Int("cmd-retry", 0, "reliable-delivery retransmission period in TTIs (0 disables)")
	report := flag.Duration("report", 2*time.Second, "status print interval")
	profile := flag.Bool("profile", false, "print the deadline/latency profile with every status line")
	flag.Parse()

	opts := flexran.DefaultMasterOptions()
	opts.StatsPeriodTTI = *statsPeriod
	opts.SyncPeriodTTI = *syncPeriod
	opts.CmdRetryTTI = *cmdRetry
	m := flexran.NewMaster(opts)
	m.Register(apps.NewMonitor(100), 0)
	// An empty elastic slice broker backs the /slices resources: operators
	// install specs at runtime through PUT /slices (flexran-ctl set slice).
	slices, err := flexran.NewSliceBroker(flexran.SliceBrokerConfig{Elastic: true})
	if err != nil {
		fmt.Fprintln(os.Stderr, "master: slice broker:", err)
		os.Exit(1)
	}
	m.Register(slices, 10)
	ls := &flexran.LoopStats{}

	stop := make(chan struct{})
	go func() {
		// SIGTERM is the normal container/systemd stop signal; trapping
		// only SIGINT would hard-kill the loop mid-write and skip the
		// final metrics dump.
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		close(stop)
	}()
	go func() {
		// The FlexRAN-rtc-style profiling hook: USR1 dumps the loop
		// accounting on demand.
		usr1 := make(chan os.Signal, 1)
		signal.Notify(usr1, syscall.SIGUSR1)
		for {
			select {
			case <-stop:
				return
			case <-usr1:
				fmt.Println(ls.Profile())
			}
		}
	}()

	go func() {
		t := time.NewTicker(*report)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				fmt.Println(flexran.MasterSummary(m))
				if *profile {
					fmt.Println(ls.Profile())
				}
			}
		}
	}()

	if *api != "" {
		apiAddr, err := flexran.ServeNorthbound(m, ls, *api, stop, flexran.WithSliceBroker(slices))
		if err != nil {
			fmt.Fprintln(os.Stderr, "master: northbound:", err)
			os.Exit(1)
		}
		fmt.Printf("flexran-master northbound API on %s\n", apiAddr)
	}
	l, err := flexran.ListenControl(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "master:", err)
		os.Exit(1)
	}
	fmt.Printf("flexran-master listening on %s\n", l.Addr())
	err = flexran.ServeMasterListener(m, l, stop, flexran.RTConfig{Stats: ls})
	// Flush the final accounting whether the loop ended by signal or by a
	// transport failure.
	fmt.Println(flexran.MasterSummary(m))
	fmt.Println(ls.Profile())
	if err != nil {
		fmt.Fprintln(os.Stderr, "master:", err)
		os.Exit(1)
	}
}
