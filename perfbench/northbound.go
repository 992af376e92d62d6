package main

// The northbound read path, measured as an operator sees it: a single
// HTTP client in a closed loop of GET /rib/enb/{id} against the master's
// ServeNorthbound server over loopback TCP. Every reply is checked: status
// 200, the eNodeB asked for, and the UE count the caller expects both in
// the "ues" field and as rows of "ue_list".

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"flexran"
	"flexran/internal/lte"
	"flexran/internal/scenario"
)

// nbClient issues and checks northbound queries on one kept-alive
// connection.
type nbClient struct {
	hc   *http.Client
	base string
	body bytes.Buffer
}

func newNBClient(addr string) *nbClient {
	return &nbClient{
		hc:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 10 * time.Second},
		base: "http://" + addr,
	}
}

func (c *nbClient) close() { c.hc.CloseIdleConnections() }

// query fetches /rib/enb/{id} and checks it lists want UEs. The latency
// runs from sending the request to reading the last byte of the body.
func (c *nbClient) query(id lte.ENBID, want int) (time.Duration, error) {
	t0 := time.Now()
	resp, err := c.hc.Get(c.base + "/rib/enb/" + strconv.Itoa(int(id)))
	if err != nil {
		return 0, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if err != nil {
		return d, fmt.Errorf("reading /rib/enb/%d: %w", id, err)
	}
	if resp.StatusCode != http.StatusOK {
		return d, fmt.Errorf("/rib/enb/%d: status %d", id, resp.StatusCode)
	}
	b := c.body.Bytes()
	if got, ok := jsonInt(b, "enb"); !ok || got != int(id) {
		return d, fmt.Errorf("/rib/enb/%d: reply is for eNodeB %d", id, got)
	}
	if got, ok := jsonInt(b, "ues"); !ok || got != want {
		return d, fmt.Errorf("/rib/enb/%d: \"ues\" is %d, want %d", id, got, want)
	}
	if n := bytes.Count(b, []byte(`"rnti":`)); n != want {
		return d, fmt.Errorf("/rib/enb/%d: ue_list has %d rows, want %d", id, n, want)
	}
	return d, nil
}

// jsonInt reads the integer value of the first "key" in a JSON document,
// without decoding the rest of it.
func jsonInt(b []byte, key string) (int, bool) {
	i := bytes.Index(b, []byte(`"`+key+`":`))
	if i < 0 {
		return 0, false
	}
	rest := bytes.TrimLeft(b[i+len(key)+3:], " ")
	end := 0
	for end < len(rest) && (rest[end] == '-' || rest[end] >= '0' && rest[end] <= '9') {
		end++
	}
	n, err := strconv.Atoi(string(rest[:end]))
	return n, err == nil
}

// readStats is the outcome of a read phase.
type readStats struct {
	attempted, failed int64
	problems          []string
	p50, p99          float64 // microseconds
}

// nbBatch is the number of queries per latency batch: p99 of a batch has
// ten samples beyond it.
const nbBatch = 1000

// batchQuantiles splits latencies, in the order they were measured, into
// batches of nbBatch and returns the medians over batches of each batch's
// p50 and p99: a burst of interference from outside the process moves one
// batch, not the result. With less than one full batch it returns the
// quantiles of what there is.
func batchQuantiles(lat []float64) (p50, p99 float64) {
	if len(lat) < nbBatch {
		return quantile(lat, 0.5), quantile(lat, 0.99)
	}
	var p50s, p99s []float64
	for len(lat) >= nbBatch {
		b := lat[:nbBatch]
		p50s, p99s = append(p50s, quantile(b, 0.5)), append(p99s, quantile(b, 0.99))
		lat = lat[nbBatch:]
	}
	return median(p50s), median(p99s)
}

// nbWarmup is the number of untimed queries before a read phase.
const nbWarmup = 200

// simReadPhase queries the final RIB of a finished simulation, with
// nothing else running: n queries to eNodeBs drawn from the seed, in
// batches of nbBatch, reporting the median over batches of each batch's
// quantiles. The expected UE count of an eNodeB is the number of attached
// UEs the scenario summary attributes to it.
func simReadPhase(res *scenario.Result, n int, seed int64) (*readStats, error) {
	want := map[lte.ENBID]int{}
	for _, c := range res.Summary.Cells {
		want[c.ENB] += c.UEs
	}
	m := res.Runtime.Sim.Master
	ids := m.RIB().Agents()
	if len(ids) == 0 {
		return nil, fmt.Errorf("northbound read phase: the RIB holds no agents")
	}
	stop := make(chan struct{})
	defer close(stop)
	addr, err := flexran.ServeNorthbound(m, nil, "127.0.0.1:0", stop)
	if err != nil {
		return nil, fmt.Errorf("northbound: %w", err)
	}
	c := newNBClient(addr.String())
	defer c.close()

	rs := &readStats{}
	rng := rand.New(rand.NewSource(seed))
	// Warm the connection and the server's paths, then start from a
	// collected heap so the run's garbage is not charged to the reads.
	for i := 0; i < nbWarmup; i++ {
		id := ids[i%len(ids)]
		_, _ = c.query(id, want[id]) // checked below, in the timed loop
	}
	runtime.GC()
	lat := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		id := ids[rng.Intn(len(ids))]
		d, err := c.query(id, want[id])
		rs.attempted++
		if err != nil {
			rs.failed++
			if len(rs.problems) < 5 {
				rs.problems = append(rs.problems, err.Error())
			}
			continue
		}
		lat = append(lat, us(d))
	}
	rs.p50, rs.p99 = batchQuantiles(lat)
	return rs, nil
}
