package main

// rt-northbound: a real deployment on loopback TCP. The master runs on
// ServeMasterListener with its northbound HTTP server (ServeNorthbound);
// one paced agent (RunAgentLoopRT) carries rtUEs UEs reporting every TTI,
// each with a downlink backlog queued at set-up.
// Beside the writes, one HTTP client runs a closed loop of GET
// /rib/enb/{id} and an in-process Master.Watch subscriber consumes the
// event stream, checking that Seq has no gaps.

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"flexran"
	"flexran/internal/controller"
	"flexran/internal/lte"
)

const (
	// rtPeriod is the TTI length. At 1 ms timer jitter alone misses
	// 12-20% of deadlines on a shared 2-vCPU host; at 2 ms the unloaded
	// miss rate is near zero.
	rtPeriod = 2 * time.Millisecond
	rtUEs    = 512
	// rtBacklog is each UE's downlink backlog, queued at set-up: far more
	// than a UE's share of the cell delivers in a run.
	rtBacklog = 2 << 20
	// rtSetups is how many deployments are brought up (and all but the
	// last torn down) to take the median set-up time.
	rtSetups = 15
	// rtWarmup separates set-up transients from the measured windows.
	rtWarmup = time.Second
	// rtWindow is one measurement window; quantities are reported as the
	// median over windows.
	rtWindow = 5 * time.Second
	// rtQueryEvery paces the closed-loop client: a query starts when the
	// previous reply is in and at least this long after the previous query
	// started. While replies are faster than that the query rate, and the
	// CPU it costs, is fixed, so rt_cpu_ms_per_tti does not rise when
	// queries get faster.
	rtQueryEvery = 2 * rtPeriod
	// rtPoll is how often set-up checks whether the RIB is complete.
	rtPoll = 100 * time.Microsecond
	// rtWatchBuffer holds about two seconds of events, so a consumer that
	// is descheduled briefly never overflows.
	rtWatchBuffer = 1 << 12
	// rtReadyTimeout bounds set-up.
	rtReadyTimeout = 30 * time.Second
)

// rtWorld is the generated input of rt-northbound.
type rtWorld struct {
	enb     lte.ENBID
	enbSeed int64
	ues     []rtUE
}

type rtUE struct {
	imsi     uint64
	meanCQI  float64
	chanSeed int64
}

// rtGenerate derives the deployment from the seed (a pure function). UE
// channel means are a seeded shuffle of fixed values, so every seed offers
// the same total load.
func rtGenerate(seed int64) rtWorld {
	rng := rand.New(rand.NewSource(seed))
	w := rtWorld{enb: lte.ENBID(1 + rng.Intn(1000)), enbSeed: rng.Int63()}
	cqis := rng.Perm(rtUEs)
	for i := 0; i < rtUEs; i++ {
		w.ues = append(w.ues, rtUE{
			imsi:     uint64(w.enb)*100000 + uint64(i),
			meanCQI:  float64(6 + cqis[i]%9),
			chanSeed: rng.Int63(),
		})
	}
	return w
}

// deployment is one running master + agent pair with its watch consumer.
type deployment struct {
	w        rtWorld
	m        *flexran.Master
	agent    *flexran.Agent
	masterLS *flexran.LoopStats
	agentLS  *flexran.LoopStats
	nbAddr   string
	stop     chan struct{}
	wg       sync.WaitGroup

	mu             sync.Mutex
	earlyExits     []string // loops that ended before stop
	teardownErrors int      // errors loops returned after stop

	watchEvents, watchResyncs, watchGaps atomic.Int64
}

// loopDone records how a loop goroutine ended.
func (d *deployment) loopDone(name string, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	select {
	case <-d.stop:
		if err != nil {
			d.teardownErrors++
		}
	default:
		d.earlyExits = append(d.earlyExits, fmt.Sprintf("%s loop ended during the run: %v", name, err))
	}
}

// deploy starts a deployment and waits until the RIB holds the agent and
// all its UEs, returning the time that took.
func deploy(w rtWorld) (*deployment, time.Duration, error) {
	t0 := time.Now()
	opts := flexran.DefaultMasterOptions()
	opts.RTTProbePeriodTTI = 16
	d := &deployment{
		w:        w,
		m:        flexran.NewMaster(opts),
		masterLS: &flexran.LoopStats{},
		agentLS:  &flexran.LoopStats{},
		stop:     make(chan struct{}),
	}
	l, err := flexran.ListenControl("127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		d.loopDone("master", flexran.ServeMasterListener(d.m, l, d.stop, flexran.RTConfig{Period: rtPeriod, Stats: d.masterLS}))
	}()
	nb, err := flexran.ServeNorthbound(d.m, d.masterLS, "127.0.0.1:0", d.stop)
	if err != nil {
		d.close()
		return nil, 0, err
	}
	d.nbAddr = nb.String()
	d.wg.Add(1)
	go d.consumeWatch()

	e := flexran.NewENB(flexran.ENBConfig{ID: w.enb, Seed: w.enbSeed})
	d.agent = flexran.NewAgent(e, flexran.AgentOptions{})
	epc := flexran.NewEPC()
	epc.Register(e)
	for _, u := range w.ues {
		rnti, err := e.AddUE(flexran.UEParams{IMSI: u.imsi, Channel: flexran.FadingChannel(u.meanCQI, 0.99, 1.5, u.chanSeed)})
		if err != nil {
			d.close()
			return nil, 0, fmt.Errorf("adding UE %d: %w", u.imsi, err)
		}
		if _, err := epc.Attach(u.imsi, w.enb, rnti); err != nil {
			d.close()
			return nil, 0, fmt.Errorf("bearer for UE %d: %w", u.imsi, err)
		}
		// The whole run's downlink is queued before the agent loop starts:
		// the eNodeB may only be touched from that loop's goroutine once it
		// runs, and the queue stays non-empty for the run, so every UE is
		// backlogged every TTI.
		if _, err := epc.Downlink(u.imsi, rtBacklog); err != nil {
			d.close()
			return nil, 0, fmt.Errorf("downlink for UE %d: %w", u.imsi, err)
		}
	}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		d.loopDone("agent", flexran.RunAgentLoopRT(d.agent, l.Addr().String(), d.stop, flexran.RTConfig{Period: rtPeriod, Stats: d.agentLS}))
	}()

	for !d.ready() {
		if time.Since(t0) > rtReadyTimeout {
			d.close()
			return nil, 0, fmt.Errorf("set-up: the RIB holds %d of %d UEs after %v", d.m.RIB().UECount(w.enb), len(w.ues), rtReadyTimeout)
		}
		time.Sleep(rtPoll)
	}
	return d, time.Since(t0), nil
}

func (d *deployment) ready() bool {
	rib := d.m.RIB()
	return rib.Connected(d.w.enb) && rib.UECount(d.w.enb) == len(d.w.ues)
}

// consumeWatch drains the full event stream, checking that Seq is
// gap-free and re-subscribing after an overflow (counted as a resync).
func (d *deployment) consumeWatch() {
	defer d.wg.Done()
	w := d.m.Watch(controller.WatchFilter{}, rtWatchBuffer)
	var last uint64
	for {
		select {
		case <-d.stop:
			w.Cancel()
			return
		case ev, ok := <-w.Events():
			if !ok {
				if !w.Overflowed() {
					return
				}
				d.watchResyncs.Add(1)
				w = d.m.Watch(controller.WatchFilter{}, rtWatchBuffer)
				last = 0
				continue
			}
			if last != 0 && ev.Seq != last+1 {
				d.watchGaps.Add(1)
			}
			last = ev.Seq
			d.watchEvents.Add(1)
		}
	}
}

// close stops every goroutine of the deployment and waits for them.
func (d *deployment) close() {
	close(d.stop)
	d.wg.Wait()
}

// queryLog collects the client's results for the current window.
type queryLog struct {
	mu       sync.Mutex
	lat      []float64
	queries  int64
	failed   int64
	problems []string
}

// take returns the window's results and starts a new window.
func (q *queryLog) take() (lat []float64, queries, failed int64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	lat, queries, failed = q.lat, q.queries, q.failed
	q.lat, q.queries, q.failed = nil, 0, 0
	return lat, queries, failed
}

// queryLoop is the closed-loop northbound client.
func (d *deployment) queryLoop(q *queryLog) {
	defer d.wg.Done()
	c := newNBClient(d.nbAddr)
	defer c.close()
	pace := time.NewTimer(rtQueryEvery)
	defer pace.Stop()
	for {
		next := time.Now().Add(rtQueryEvery)
		lat, err := c.query(d.w.enb, len(d.w.ues))
		select {
		case <-d.stop:
			return // the reply may have been cut by the shutdown
		default:
		}
		q.mu.Lock()
		q.queries++
		if err != nil {
			q.failed++
			if len(q.problems) < 5 {
				q.problems = append(q.problems, err.Error())
			}
		} else {
			q.lat = append(q.lat, us(lat))
		}
		q.mu.Unlock()
		pace.Reset(time.Until(next))
		select {
		case <-d.stop:
			return
		case <-pace.C:
		}
	}
}

// liveHeapMB is the live heap after two collections (the first moves
// pooled objects to the victim cache, the second frees them).
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// rtSnap is a point-in-time reading of the deployment's counters.
type rtSnap struct {
	at           time.Time
	cpu          time.Duration
	cycle        lte.Subframe
	ticks, miss  int64
	watchEvents  int64
	gcs          uint32
	gcPause, mem uint64
}

func (d *deployment) snap() rtSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return rtSnap{
		at:          time.Now(),
		cpu:         cpuTime(),
		cycle:       d.m.Cycle(),
		ticks:       d.masterLS.Ticks() + d.agentLS.Ticks(),
		miss:        d.masterLS.Misses() + d.agentLS.Misses(),
		watchEvents: d.watchEvents.Load(),
		gcs:         ms.NumGC,
		gcPause:     ms.PauseTotalNs,
		mem:         ms.TotalAlloc,
	}
}

// rtWin is one measured window.
type rtWin struct {
	traced          bool
	a, b            rtSnap
	lat             []float64
	queries, failed int64
}

func (w rtWin) cycles() float64 { return float64(w.b.cycle - w.a.cycle) }

func (w rtWin) cpuMsPerTTI() float64 { return float64(w.b.cpu-w.a.cpu) / 1e6 / w.cycles() }

func (w rtWin) ttiRate() float64 { return w.cycles() / w.b.at.Sub(w.a.at).Seconds() }

func runRT(cfg config) (*outcome, error) {
	o := newOutcome()
	world := rtGenerate(cfg.seed)
	var setups, heaps []float64
	teardownErrors := 0
	var d *deployment
	for i := 0; i < rtSetups; i++ {
		dep, took, err := deploy(world)
		if err != nil {
			return nil, fmt.Errorf("rt-northbound: %w", err)
		}
		setups = append(setups, took.Seconds())
		// The smallest live heap over the set-ups: in-flight reports and
		// free-listed messages add 0-2 MB on top of it at random.
		heaps = append(heaps, liveHeapMB())
		if i < rtSetups-1 {
			dep.close()
			teardownErrors += dep.teardownErrors
			o.problems = append(o.problems, dep.earlyExits...)
			continue
		}
		d = dep
	}
	windows := int(cfg.seconds/rtWindow.Seconds() + 0.5)
	if windows < 1 {
		windows = 1
	}
	untraced := windows
	if cfg.trace {
		if windows < 2 {
			windows = 2
		}
		untraced = windows / 2
	}

	q := &queryLog{}
	d.wg.Add(1)
	go d.queryLoop(q)
	time.Sleep(rtWarmup)
	q.take()

	var wins []rtWin
	var prof bytes.Buffer
	traceLS := &flexran.LoopStats{}
	var traceCycle0 lte.Subframe
	for k := 0; k < windows; k++ {
		traced := k >= untraced
		if traced && k == untraced {
			d.m.SetLoopStats(traceLS)
			d.agent.SetLoopStats(traceLS)
			traceCycle0 = d.m.Cycle()
			if err := pprof.StartCPUProfile(&prof); err != nil {
				d.close()
				return nil, fmt.Errorf("rt-northbound: cpu profile: %w", err)
			}
		}
		a := d.snap()
		time.Sleep(rtWindow)
		b := d.snap()
		lat, queries, failed := q.take()
		wins = append(wins, rtWin{traced: traced, a: a, b: b, lat: lat, queries: queries, failed: failed})
	}
	traceCycle1 := d.m.Cycle()
	if cfg.trace {
		pprof.StopCPUProfile()
	}

	// End state, read before teardown: the RIB holds every UE.
	rib := d.m.RIB()
	o.check(rib.Connected(world.enb), "agent %d not connected at the end", world.enb)
	o.check(rib.UECount(world.enb) == len(world.ues), "RIB holds %d of %d UEs at the end", rib.UECount(world.enb), len(world.ues))
	d.close()
	teardownErrors += d.teardownErrors
	o.problems = append(o.problems, d.earlyExits...)
	o.check(d.watchGaps.Load() == 0, "watch stream has %d Seq gaps", d.watchGaps.Load())
	q.mu.Lock()
	o.problems = append(o.problems, q.problems...)
	q.mu.Unlock()

	// One attempt per query, plus the watch subscription; a failed query
	// or an overflow that forced a resync is a failure.
	o.attempted = 1
	o.failed = d.watchResyncs.Load()
	for _, w := range wins {
		o.attempted += w.queries
		o.failed += w.failed
	}

	pick := func(traced bool, f func(rtWin) float64) float64 {
		var xs []float64
		for _, w := range wins {
			if w.traced == traced {
				xs = append(xs, f(w))
			}
		}
		return median(xs)
	}
	v := o.values
	v["setup_s"] = median(setups)
	v["tti_per_s"] = pick(false, rtWin.ttiRate)
	v["cpu_s"] = pick(false, func(w rtWin) float64 { return (w.b.cpu - w.a.cpu).Seconds() })
	v["heap_mb"] = minimum(heaps)
	v["rt_cpu_ms_per_tti"] = pick(false, rtWin.cpuMsPerTTI)
	latencies := func(traced bool) []float64 {
		var lat []float64
		for _, w := range wins {
			if w.traced == traced {
				lat = append(lat, w.lat...)
			}
		}
		return lat
	}
	v["nb_query_p50_us"], _ = batchQuantiles(latencies(false))
	for _, w := range wins {
		fmt.Printf("  rt window traced=%v: %.0f TTIs, %.1f TTI/s, cpu %.3f ms/TTI, %d queries (p50 %.0f us, p99 %.0f us), misses %d/%d\n",
			w.traced, w.cycles(), w.ttiRate(), w.cpuMsPerTTI(), w.queries, quantile(w.lat, 0.5), quantile(w.lat, 0.99),
			w.b.miss-w.a.miss, w.b.ticks-w.a.ticks)
	}
	if !cfg.trace {
		return o, nil
	}

	var ticks, misses, queries, events, gcs int64
	var gcPause, alloc uint64
	for _, w := range wins {
		if w.traced {
			ticks += w.b.ticks - w.a.ticks
			misses += w.b.miss - w.a.miss
			queries += w.queries
			events += w.b.watchEvents - w.a.watchEvents
			gcs += int64(w.b.gcs - w.a.gcs)
			gcPause += w.b.gcPause - w.a.gcPause
			alloc += w.b.mem - w.a.mem
		}
	}
	v["trace.tti_per_s_delta"] = pick(true, rtWin.ttiRate) - pick(false, rtWin.ttiRate)
	v["trace.cpu_ms_per_tti_delta"] = pick(true, rtWin.cpuMsPerTTI) - pick(false, rtWin.cpuMsPerTTI)
	core, apps := d.m.CycleTimes()
	core = core.Between(float64(traceCycle0), float64(traceCycle1))
	apps = apps.Between(float64(traceCycle0), float64(traceCycle1))
	v["controller.core_ms"] = sum(core.V)
	v["controller.core_p99_ms"] = quantile(core.V, 0.99)
	v["controller.apps_ms"] = sum(apps.V)
	v["controller.ingest_p50_us"] = us(traceLS.Ingest.Quantile(0.5))
	v["controller.ingest_p99_us"] = us(traceLS.Ingest.Quantile(0.99))
	v["controller.step_p50_us"] = us(d.masterLS.Step.Quantile(0.5))
	v["controller.step_p99_us"] = us(d.masterLS.Step.Quantile(0.99))
	v["controller.rtt_p50_us"] = us(traceLS.RTT.Quantile(0.5))
	v["agent.report_p50_us"] = us(traceLS.Report.Quantile(0.5))
	v["agent.report_p99_us"] = us(traceLS.Report.Quantile(0.99))
	v["agent.reports"] = float64(traceLS.Report.Count())
	v["agent.step_p50_us"] = us(d.agentLS.Step.Quantile(0.5))
	v["northbound.queries"] = float64(queries)
	_, v["northbound.query_p99_us"] = batchQuantiles(latencies(true))
	v["northbound.watch_events"] = float64(events)
	v["northbound.watch_resyncs"] = float64(d.watchResyncs.Load())
	v["rt.ticks"] = float64(ticks)
	v["rt.misses"] = float64(misses)
	if ticks > 0 {
		v["rt.miss_rate"] = float64(misses) / float64(ticks)
	}
	v["rt.teardown_errors"] = float64(teardownErrors)
	v["runtime.gc_count"] = float64(gcs)
	v["runtime.gc_pause_ms"] = float64(gcPause) / 1e6
	v["runtime.alloc_mb"] = float64(alloc) / 1e6
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, fmt.Errorf("rt-northbound: %w", err)
	}
	for m, s := range shares {
		v["cpu."+m] = s
	}
	return o, nil
}
