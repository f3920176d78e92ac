package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/fleet"
	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/units"
	"repro/internal/zoo"
)

// The serve workload drives a two-replica quick-lab serving fleet over
// HTTP from this process, with at most nproc keep-alive connections. The
// replicas are `dnnperf -quick serve` processes, exactly what `dnnperf
// fleet` spawns; the consistent-hash proxy in front of them is
// internal/fleet hosted by this binary in a child process (-role proxy),
// because `dnnperf fleet` exposes none of the proxy's own counters
// (retries, spills, admission rejections). One request mix feeds both
// phases: a closed loop that measures peak_rps, then an open-loop Poisson
// phase at a fixed rate that measures latency from each request's due time.

const (
	serveReplicas    = 2
	serveMaxInflight = 256     // dnnperf fleet's default per-replica cap
	serveOpenRate    = 1000.0  // rps, ≈30% of the closed-loop peak on a 2-core box
	serveClosedList  = 100_000 // requests generated for the closed loop
	serveDrain       = 2 * time.Second
	serveWarmup      = time.Second // untimed closed loop before the measured one
	serveSetups      = 5           // fleet boots per run; setup_s and peak_rss_mb use their median
	// serveRateWindow and serveLatWindow split the closed and open loops
	// into sub-windows whose median rate and p99 are reported; a latency
	// window holds ≈1000 requests, so ≥10 lie beyond its p99.
	serveRateWindow = 500 * time.Millisecond
	serveLatWindow  = time.Second
)

// serveBatches are the batch sizes of the hot /predict keys: with the 40
// standard networks, 160 hot keys, far below the 1024-entry plan cache.
var serveBatches = []int{1, 8, 64, 512}

// ---------------------------------------------------------------- request mix

// request is one generated request and the prediction it must return.
type request struct {
	target string // path and query
	body   []byte
	want   []float64 // predicted_ms, bit for bit
}

// mixGen generates the seeded request mix and computes every expected
// answer in-process with the same quick-lab A100 model the replicas fit.
type mixGen struct {
	rng   *rand.Rand
	seed  int64
	model *core.KWModel
	names []string
	nets  map[string]*dnn.Network
	specs int
}

func (g *mixGen) next() (request, error) {
	p := g.rng.Float64()
	switch {
	case p < 0.90:
		name := g.names[g.rng.Intn(len(g.names))]
		b := serveBatches[g.rng.Intn(len(serveBatches))]
		pred, err := g.model.PredictNetwork(g.nets[name], b)
		if err != nil {
			return request{}, err
		}
		return request{target: fmt.Sprintf("/predict?network=%s&batch=%d", name, b),
			want: []float64{pred.Float64() * 1e3}}, nil
	case p < 0.98:
		name := g.names[g.rng.Intn(len(g.names))]
		batches := g.batchList()
		want, err := g.sweep(g.nets[name], batches)
		if err != nil {
			return request{}, err
		}
		return request{target: fmt.Sprintf("/predict/batch?network=%s&batches=%s", name, csvInts(batches)),
			want: want}, nil
	default:
		body, net, err := g.spec()
		if err != nil {
			return request{}, err
		}
		batches := g.batchList()
		want, err := g.sweep(net, batches)
		if err != nil {
			return request{}, err
		}
		doc := map[string]any{"network_spec": body, "batches": batches}
		b, err := json.Marshal(doc)
		if err != nil {
			return request{}, err
		}
		return request{target: "/predict/batch", body: b, want: want}, nil
	}
}

func (g *mixGen) batchList() []int {
	out := make([]int, 2+g.rng.Intn(7))
	for i := range out {
		out[i] = 1 + g.rng.Intn(1024)
	}
	return out
}

func (g *mixGen) sweep(n *dnn.Network, batches []int) ([]float64, error) {
	secs, err := g.model.PredictSweep(n, batches)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(secs))
	for i, s := range secs {
		out[i] = s.Float64() * 1e3
	}
	return out, nil
}

// specLayer is the wire form of one inline layer (the serve handler's
// network_spec schema).
type specLayer struct {
	Kind        string `json:"kind"`
	Cin         int    `json:"cin,omitempty"`
	Cout        int    `json:"cout,omitempty"`
	KH          int    `json:"kh,omitempty"`
	KW          int    `json:"kw,omitempty"`
	Stride      int    `json:"stride,omitempty"`
	Pad         int    `json:"pad,omitempty"`
	Groups      int    `json:"groups,omitempty"`
	InFeatures  int    `json:"in_features,omitempty"`
	OutFeatures int    `json:"out_features,omitempty"`
}

// spec draws a never-seen small CNN (unique name and classifier width per
// request) and builds the same network in-process: each layer feeds on the
// previous one, as the handler defaults.
func (g *mixGen) spec() (map[string]any, *dnn.Network, error) {
	g.specs++
	res := []int{32, 64, 96, 128}[g.rng.Intn(4)]
	c1 := 8 * (1 + g.rng.Intn(8))
	c2 := 16 * (1 + g.rng.Intn(8))
	k := []int{1, 3, 5}[g.rng.Intn(3)]
	layers := []specLayer{
		{Kind: string(dnn.KindConv2D), Cin: 3, Cout: c1, KH: k, KW: k, Stride: 1, Pad: k / 2, Groups: 1},
		{Kind: string(dnn.KindBatchNorm)},
		{Kind: string(dnn.KindReLU)},
		{Kind: string(dnn.KindConv2D), Cin: c1, Cout: c2, KH: 3, KW: 3, Stride: 2, Pad: 1, Groups: 1},
		{Kind: string(dnn.KindReLU)},
		{Kind: string(dnn.KindGlobalAvgPool)},
		{Kind: string(dnn.KindFlatten)},
		{Kind: string(dnn.KindLinear), InFeatures: c2, OutFeatures: 10 + g.specs},
	}
	name := fmt.Sprintf("perfbench-%d-%d", g.seed, g.specs)
	input := []int{3, res, res}
	n := dnn.New(name, "custom", dnn.TaskImageClassification, dnn.Shape(input))
	for i, l := range layers {
		in := i - 1
		if i == 0 {
			in = dnn.NetworkInput
		}
		n.Add(&dnn.Layer{Kind: dnn.Kind(l.Kind), Inputs: []int{in},
			Cin: l.Cin, Cout: l.Cout, KH: l.KH, KW: l.KW, Stride: l.Stride, Pad: l.Pad, Groups: l.Groups,
			InFeatures: l.InFeatures, OutFeatures: l.OutFeatures})
	}
	if err := n.Infer(1); err != nil {
		return nil, nil, err
	}
	return map[string]any{"name": name, "input_shape": input, "layers": layers}, n, nil
}

func csvInts(xs []int) string {
	var b strings.Builder
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(x))
	}
	return b.String()
}

// checkBody reports whether a 200 body's predicted_ms equals want bit for bit.
func checkBody(body []byte, want []float64) bool {
	const key = `"predicted_ms":`
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return false
	}
	rest := bytes.TrimSpace(body[i+len(key):])
	rest = bytes.TrimSuffix(rest, []byte("}"))
	rest = bytes.TrimPrefix(bytes.TrimSuffix(rest, []byte("]")), []byte("["))
	parts := bytes.Split(rest, []byte(","))
	if len(parts) != len(want) {
		return false
	}
	for j, p := range parts {
		v, err := strconv.ParseFloat(string(bytes.TrimSpace(p)), 64)
		if err != nil || math.Float64bits(v) != math.Float64bits(want[j]) {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------- processes

// child is one spawned process and the address it announced.
type child struct {
	cmd   *exec.Cmd
	addrs []string
}

// spawn starts a process that announces its listener on stdout with a line
// starting with prefix; the remaining words of that line that look like
// http:// URLs are its addresses. The child is killed if this process dies.
func spawn(logPath, prefix, bin string, args ...string) (*child, error) {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd.Stderr = logf
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	logf.Close() // the child holds its own descriptor
	addrc := make(chan []string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if !sent && strings.HasPrefix(line, prefix) {
				var addrs []string
				for _, w := range strings.Fields(line) {
					if a, ok := strings.CutPrefix(w, "http://"); ok {
						addrs = append(addrs, a)
					}
				}
				addrc <- addrs
				sent = true
			}
		}
		if !sent {
			close(addrc)
		}
	}()
	c := &child{cmd: cmd}
	select {
	case addrs, ok := <-addrc:
		if ok && len(addrs) > 0 {
			c.addrs = addrs
			return c, nil
		}
		c.stop()
		return nil, fmt.Errorf("%s exited without announcing a listener (see %s)", bin, logPath)
	case <-time.After(30 * time.Second):
		c.stop()
		return nil, fmt.Errorf("%s did not announce a listener within 30s", bin)
	}
}

// stop sends SIGTERM, waits for the drain and kills a process that
// outlives it; it returns once the process has exited.
func (c *child) stop() {
	if c == nil {
		return
	}
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = c.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		_ = c.cmd.Process.Kill()
		<-done
	}
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// servingFleet is the replicas and the proxy in front of them.
type servingFleet struct {
	replicas []*child
	proxy    *child
	base     string // proxy URL
	side     string // proxy's own metrics/owner endpoint
}

func (f *servingFleet) stop() {
	f.proxy.stop()
	for _, r := range f.replicas {
		r.stop()
	}
}

// peakRSS sums VmHWM over the proxy and the replicas, in MB.
func (f *servingFleet) peakRSS() (float64, error) {
	total := 0.0
	for _, c := range append([]*child{f.proxy}, f.replicas...) {
		m, err := peakRSSMB(c.pid())
		if err != nil {
			return 0, err
		}
		total += m
	}
	return total, nil
}

// startFleet boots the replicas and the proxy, waits until every replica
// is ready behind the proxy and warms the hot keys once through it.
func startFleet(e *env, client *http.Client, hot []string) (*servingFleet, error) {
	f := &servingFleet{}
	for i := 0; i < serveReplicas; i++ {
		r, err := spawn(filepath.Join(e.out, fmt.Sprintf("serve-replica%d.log", i)), "dnnperf: serving on",
			e.dnnperf, "-quick", "-gpu", gpu.A100.Name, "-addr", "127.0.0.1:0", "serve")
		if err != nil {
			f.stop()
			return nil, err
		}
		f.replicas = append(f.replicas, r)
	}
	self, err := os.Executable()
	if err != nil {
		f.stop()
		return nil, err
	}
	addrs := make([]string, len(f.replicas))
	for i, r := range f.replicas {
		addrs[i] = r.addrs[0]
	}
	f.proxy, err = spawn(filepath.Join(e.out, "serve-proxy.log"), "perfbench proxy:",
		self, "-role", "proxy", "-replicas", strings.Join(addrs, ","))
	if err != nil {
		f.stop()
		return nil, err
	}
	if len(f.proxy.addrs) != 2 {
		f.stop()
		return nil, fmt.Errorf("proxy announced %v, want two addresses", f.proxy.addrs)
	}
	f.base, f.side = "http://"+f.proxy.addrs[0], "http://"+f.proxy.addrs[1]

	deadline := time.Now().Add(120 * time.Second)
	for {
		body, status, err := get(client, f.side+"/readycount")
		if err == nil && status == http.StatusOK && strings.TrimSpace(string(body)) == strconv.Itoa(serveReplicas) {
			break
		}
		if time.Now().After(deadline) {
			f.stop()
			return nil, fmt.Errorf("fleet not ready within 120s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, target := range hot {
		if _, status, err := get(client, f.base+target); err != nil || status != http.StatusOK {
			f.stop()
			return nil, fmt.Errorf("warming %s: status %d, %v", target, status, err)
		}
	}
	return f, nil
}

func get(client *http.Client, url string) ([]byte, int, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

// runProxyRole hosts the fleet proxy (what `dnnperf fleet` serves, with its
// options and server timeouts) and, on a second listener, the proxy
// process's metrics registry, ring ownership and readiness.
func runProxyRole(replicas string) error {
	proxy, err := fleet.New(strings.Split(replicas, ","), fleet.Options{MaxInflight: serveMaxInflight})
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	probeCtx, stopProbes := context.WithCancel(context.Background())
	defer stopProbes()
	proxy.Start(probeCtx)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	sideLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: proxy, ReadHeaderTimeout: 5 * time.Second, ReadTimeout: 30 * time.Second,
		WriteTimeout: 60 * time.Second, IdleTimeout: 120 * time.Second}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		_ = obs.Default().WriteJSON(w)
	})
	mux.HandleFunc("/owner", func(w http.ResponseWriter, r *http.Request) {
		addr, _ := proxy.Owner(r.URL.Query().Get("network"))
		fmt.Fprint(w, addr)
	})
	mux.HandleFunc("/readycount", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, proxy.ReadyCount())
	})
	side := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	errc := make(chan error, 2)
	go func() { errc <- srv.Serve(ln) }()
	go func() { errc <- side.Serve(sideLn) }()
	fmt.Printf("perfbench proxy: http://%s metrics http://%s\n", ln.Addr(), sideLn.Addr())
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = side.Close()
	return srv.Shutdown(sctx)
}

// ---------------------------------------------------------------- metrics scrapes

// metricsSnap is one /metrics.json scrape, by metric name.
type metricsSnap map[string]obs.MetricJSON

func scrape(client *http.Client, url string) (metricsSnap, error) {
	body, status, err := get(client, url)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("scraping %s: status %d", url, status)
	}
	var doc struct {
		Metrics []obs.MetricJSON `json:"metrics"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("scraping %s: %w", url, err)
	}
	out := metricsSnap{}
	for _, m := range doc.Metrics {
		out[m.Name] = m
	}
	return out, nil
}

func (s metricsSnap) value(name string) float64 {
	if m, ok := s[name]; ok && m.Value != nil {
		return float64(*m.Value)
	}
	return 0
}

func (s metricsSnap) hist(name string) (sum, count float64) {
	if m, ok := s[name]; ok && m.Sum != nil && m.Count != nil {
		return *m.Sum, float64(*m.Count)
	}
	return 0, 0
}

// fleetScrape is one scrape of every replica and of the proxy.
type fleetScrape struct {
	replicas []metricsSnap
	proxy    metricsSnap
}

func scrapeFleet(client *http.Client, f *servingFleet) (fleetScrape, error) {
	var s fleetScrape
	for _, r := range f.replicas {
		m, err := scrape(client, "http://"+r.addrs[0]+"/metrics.json")
		if err != nil {
			return s, err
		}
		s.replicas = append(s.replicas, m)
	}
	var err error
	s.proxy, err = scrape(client, f.side+"/metrics.json")
	return s, err
}

// counterDelta sums a counter's growth over the replicas.
func counterDelta(a, b fleetScrape, name string) float64 {
	d := 0.0
	for i := range a.replicas {
		d += b.replicas[i].value(name) - a.replicas[i].value(name)
	}
	return d
}

// histP50Delta is the median of a histogram's observations between two
// scrapes, over the replicas, in microseconds: linear within the bucket
// that holds it (0 with no observations).
func histP50Delta(a, b fleetScrape, name string) float64 {
	var cum []float64
	var edges []float64
	for i := range a.replicas {
		bm, am := b.replicas[i][name], a.replicas[i][name]
		for j, bk := range bm.Buckets {
			if len(cum) <= j {
				cum = append(cum, 0)
				edge := math.Inf(1)
				if bk.LE != nil {
					edge = *bk.LE
				}
				edges = append(edges, edge)
			}
			d := float64(bk.Cumulative)
			if j < len(am.Buckets) {
				d -= float64(am.Buckets[j].Cumulative)
			}
			cum[j] += d
		}
	}
	if len(cum) == 0 || cum[len(cum)-1] == 0 {
		return 0
	}
	half := cum[len(cum)-1] / 2
	lo, below := 0.0, 0.0
	for j, c := range cum {
		if c >= half {
			if math.IsInf(edges[j], 1) {
				return lo * 1e6
			}
			return (lo + (edges[j]-lo)*(half-below)/(c-below)) * 1e6
		}
		lo, below = edges[j], c
	}
	return lo * 1e6
}

// histMeanDelta is the mean of a histogram's observations between two
// scrapes, over the replicas, in microseconds (0 with no observations).
func histMeanDelta(a, b fleetScrape, name string) float64 {
	var s, n float64
	for i := range a.replicas {
		bs, bn := b.replicas[i].hist(name)
		as, an := a.replicas[i].hist(name)
		s += bs - as
		n += bn - an
	}
	if n == 0 {
		return 0
	}
	return s / n * 1e6
}

// ---------------------------------------------------------------- generator

// genStats collects one phase's request outcomes.
type genStats struct {
	mu        sync.Mutex
	attempted int64
	ok        int64
	failed    int64
	refused   int64 // 429 from proxy admission control
	wrong     int64 // 200 with a wrong prediction
	latMS     []float64
	lateMS    []float64
	// at[i] is when sample i happened, from the phase start: completion
	// time in the closed loop, due time in the open loop.
	okAt  []time.Duration
	latAt []time.Duration
}

func (s *genStats) add(status int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attempted++
	if ok {
		s.ok++
		return
	}
	s.failed++
	switch {
	case status == http.StatusTooManyRequests:
		s.refused++
	case status == http.StatusOK:
		s.wrong++
	}
}

// send issues one request and checks its answer.
func send(client *http.Client, base string, r *request) (int, bool) {
	method := http.MethodGet
	var body io.Reader
	if r.body != nil {
		method, body = http.MethodPost, bytes.NewReader(r.body)
	}
	req, err := http.NewRequest(method, base+r.target, body)
	if err != nil {
		return 0, false
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, false
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return resp.StatusCode, false
	}
	return resp.StatusCode, checkBody(b, r.want)
}

// closedLoop runs conns clients back to back for the window; only
// completions inside the window count.
func closedLoop(client *http.Client, base string, list []request, next *atomic.Int64, conns int, window time.Duration, tr *tracer, parent spanRef) *genStats {
	st := &genStats{}
	start := time.Now()
	end := start.Add(window)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		track := tr.newTrack()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				r := &list[next.Add(1)%int64(len(list))]
				sp := tr.beginOn("gen.request", parent, track)
				status, ok := send(client, base, r)
				sp.end(map[string]any{"status": status})
				if time.Now().After(end) {
					return
				}
				st.add(status, ok)
				if ok {
					st.mu.Lock()
					st.okAt = append(st.okAt, time.Since(start))
					st.mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if next.Load() > int64(len(list)) {
		fmt.Fprintf(os.Stderr, "perfbench: closed loop wrapped its %d-request list; inline specs repeated\n", len(list))
	}
	return st
}

// openLoop sends list[i] at its due time (Poisson arrivals at rate) over
// conns connections. Latency runs from the due time, so a stall also
// counts against the requests queued behind it; lateness is how far
// behind its schedule the generator sent. Requests still unsent when the
// window plus the drain allowance has passed fail.
func openLoop(client *http.Client, base string, list []request, due []time.Duration, conns int, window time.Duration, tr *tracer, parent spanRef) *genStats {
	st := &genStats{latMS: make([]float64, 0, len(list)), lateMS: make([]float64, 0, len(list))}
	jobs := make(chan int, len(list)) // sized to the number of sends: the dispatcher never blocks
	start := time.Now()
	giveUp := start.Add(window + serveDrain)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		track := tr.newTrack()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				dueAt := start.Add(due[i])
				sent := time.Now()
				if sent.After(giveUp) {
					st.add(0, false)
					st.mu.Lock()
					st.latMS = append(st.latMS, math.Inf(1))
					st.lateMS = append(st.lateMS, sent.Sub(dueAt).Seconds()*1e3)
					st.latAt = append(st.latAt, due[i])
					st.mu.Unlock()
					continue
				}
				sp := tr.beginOn("gen.request", parent, track)
				status, ok := send(client, base, &list[i])
				done := time.Now()
				sp.end(map[string]any{"status": status, "late_us": sent.Sub(dueAt).Microseconds()})
				st.add(status, ok)
				lat := done.Sub(dueAt).Seconds() * 1e3
				if !ok {
					lat = math.Inf(1)
				}
				st.mu.Lock()
				st.latMS = append(st.latMS, lat)
				st.lateMS = append(st.lateMS, sent.Sub(dueAt).Seconds()*1e3)
				st.latAt = append(st.latAt, due[i])
				st.mu.Unlock()
			}
		}()
	}
	for i, d := range due {
		if wait := time.Until(start.Add(d)); wait > 0 {
			time.Sleep(wait)
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return st
}

// windowRate is the median over sub-windows of width w of the completion
// rate, per second: one stall (a descheduled process, a GC pause) moves one
// window, not the result.
func windowRate(at []time.Duration, total, w time.Duration) float64 {
	n := int(total / w)
	counts := make([]float64, n)
	for _, t := range at {
		if i := int(t / w); i < n {
			counts[i]++
		}
	}
	for i := range counts {
		counts[i] /= w.Seconds()
	}
	return median(counts)
}

// windowQuantile is the median over sub-windows of width w (by due time)
// of each window's q-quantile latency.
func windowQuantile(lat []float64, at []time.Duration, total, w time.Duration, q float64) float64 {
	n := int(total / w)
	per := make([][]float64, n)
	for i, t := range at {
		if k := int(t / w); k < n {
			per[k] = append(per[k], lat[i])
		}
	}
	qs := make([]float64, 0, n)
	for _, xs := range per {
		if len(xs) > 0 {
			qs = append(qs, quantile(xs, q))
		}
	}
	return median(qs)
}

// poissonDue draws the open loop's due times: exponential gaps at rate
// until the window is full.
func poissonDue(rng *rand.Rand, rate float64, window time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= window {
			return out
		}
		out = append(out, d)
	}
}

// planPredictNS times in-process Plan.Predict over the networks at the hot
// batch sizes, in ns per call.
func planPredictNS(m *core.KWModel, nets []*dnn.Network, tr *tracer, parent spanRef) (float64, error) {
	plans := make([]*core.Plan, len(nets))
	for i, n := range nets {
		p, err := m.CompiledPlan(n)
		if err != nil {
			return 0, err
		}
		plans[i] = p
	}
	sp := tr.begin("core.predict_ns", parent)
	var sink units.Seconds
	calls := 0
	start := time.Now()
	for time.Since(start) < 200*time.Millisecond {
		for _, p := range plans {
			for _, b := range serveBatches {
				sink += p.Predict(b)
			}
		}
		calls += len(plans) * len(serveBatches)
	}
	d := time.Since(start)
	sp.end(map[string]any{"calls": calls})
	if sink < 0 {
		return 0, fmt.Errorf("negative prediction sum")
	}
	return float64(d.Nanoseconds()) / float64(calls), nil
}

// ---------------------------------------------------------------- workload

func runServe(e *env) (*outcome, error) {
	o := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
	tr := e.tr
	if e.dnnperf == "" {
		return nil, fmt.Errorf("the serve workload needs -dnnperf")
	}
	conns := runtime.NumCPU()
	// The generator is measuring apparatus: collect its garbage less often
	// so its pauses add less to the latencies it times.
	debug.SetGCPercent(400)

	// The reference model: the quick-lab A100 KW fit every replica makes.
	lab := bench.NewQuickLab()
	ds, err := lab.Dataset(gpu.A100)
	if err != nil {
		return nil, err
	}
	train, _ := lab.Split(ds)
	model, err := core.FitKW(train, gpu.A100.Name, bench.TrainBatch)
	if err != nil {
		return nil, err
	}
	gen := &mixGen{rng: rand.New(rand.NewSource(e.seed)), seed: e.seed, model: model, nets: map[string]*dnn.Network{}}
	var hot []string
	var hotNets []*dnn.Network
	for _, n := range zoo.Standard() {
		net, err := lab.Network(n.Name)
		if err != nil {
			return nil, err
		}
		gen.names = append(gen.names, n.Name)
		gen.nets[n.Name] = net
		hotNets = append(hotNets, net)
		for _, b := range serveBatches {
			hot = append(hot, fmt.Sprintf("/predict?network=%s&batch=%d", n.Name, b))
		}
	}
	closedWin := time.Duration(0.35 * e.seconds * float64(time.Second))
	openWin := time.Duration(0.65 * e.seconds * float64(time.Second))
	closedList := make([]request, serveClosedList)
	for i := range closedList {
		if closedList[i], err = gen.next(); err != nil {
			return nil, err
		}
	}
	due := poissonDue(gen.rng, serveOpenRate, openWin)
	openList := make([]request, len(due))
	for i := range openList {
		if openList[i], err = gen.next(); err != nil {
			return nil, err
		}
	}

	client := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     90 * time.Second,
			DisableCompression:  true,
		},
	}
	defer client.CloseIdleConnections()

	// Set-up, serveSetups times: spawn → every replica ready → hot keys
	// warmed.
	var (
		f        *servingFleet
		bootRSS  []float64
		lastBoot float64
	)
	defer func() {
		if f != nil {
			f.stop()
		}
	}()
	setupRoot := tr.begin("serve.setup", spanRef{})
	setupS, err := repeatSetup(serveSetups, func() error {
		if f != nil {
			f.stop()
			f = nil
		}
		sp := tr.begin("serve.fleet_start", setupRoot)
		var err error
		f, err = startFleet(e, client, hot)
		sp.end(nil)
		if err != nil {
			return err
		}
		lastBoot, err = f.peakRSS()
		bootRSS = append(bootRSS, lastBoot)
		return err
	})
	setupRoot.end(nil)
	if err != nil {
		return nil, err
	}
	client.CloseIdleConnections()

	self := os.Getpid()
	cpu := func() (generator, proxy, replicas float64, err error) {
		if generator, err = cpuSeconds(self); err != nil {
			return
		}
		if proxy, err = cpuSeconds(f.proxy.pid()); err != nil {
			return
		}
		for _, r := range f.replicas {
			c, err2 := cpuSeconds(r.pid())
			if err2 != nil {
				return 0, 0, 0, err2
			}
			replicas += c
		}
		return
	}
	// Warm the connections, the replicas' heaps and the proxy's upstream
	// pool before anything is timed; the measured loop continues the same
	// request list, so every inline network is still new to the fleet.
	var listPos atomic.Int64
	warm := closedLoop(client, f.base, closedList, &listPos, conns, serveWarmup, nil, spanRef{})
	o.attempted += warm.attempted
	o.fail(warm.failed, "warm-up: %d of %d requests failed", warm.failed, warm.attempted)

	s0, err := scrapeFleet(client, f)
	if err != nil {
		return nil, err
	}
	g0, p0, r0, err := cpu()
	if err != nil {
		return nil, err
	}
	measureStart := time.Now()
	phase := tr.begin("gen.closed_loop", spanRef{})
	closed := closedLoop(client, f.base, closedList, &listPos, conns, closedWin, nil, spanRef{})
	phase.end(map[string]any{"completed": closed.ok})
	g1, p1, r1, err := cpu()
	if err != nil {
		return nil, err
	}
	s1, err := scrapeFleet(client, f)
	if err != nil {
		return nil, err
	}
	// Free the closed loop's requests so the generator's own collector
	// has little to mark while latency is measured.
	var tracedList []request
	if tr != nil {
		tracedList = closedList // the traced run replays it afterwards
	}
	closedList = nil
	runtime.GC()
	phase = tr.begin("gen.open_loop", spanRef{})
	open := openLoop(client, f.base, openList, due, conns, openWin, tr, phase)
	phase.end(map[string]any{"requests": len(due)})
	wall := time.Since(measureStart).Seconds()
	s2, err := scrapeFleet(client, f)
	if err != nil {
		return nil, err
	}

	for _, st := range []*genStats{closed, open} {
		o.attempted += st.attempted
		o.fail(st.failed, "%d of %d requests failed (%d refused with 429, %d wrong predictions)",
			st.failed, st.attempted, st.refused, st.wrong)
	}
	completed := float64(closed.ok)
	o.e2e["wall_s"] = wall
	o.e2e["setup_s"] = setupS
	o.e2e["peak_rps"] = windowRate(closed.okAt, closedWin, serveRateWindow)
	o.e2e["p50_ms"] = quantile(append([]float64(nil), open.latMS...), 0.50)
	// The open loop's tail is reported with the layers, not as an
	// end-to-end metric: on a shared host it follows CPU steal more than
	// the serving stack (3.1–8.5 ms over four runs at one seed on a 2-core
	// VM, with steal at 0.5–2%).
	o.layers["serve.open_p99_ms"] = windowQuantile(open.latMS, open.latAt, openWin, serveLatWindow, 0.99)
	fmt.Fprintf(os.Stderr, "perfbench: serve closed loop %d ok in %v over %d connections; open loop %d requests at %.0f rps, p50/p99 over %d samples\n",
		closed.ok, closedWin, conns, len(due), serveOpenRate, len(open.latMS))

	// Peak RSS: the fleet's boot peak varies with GC timing, so take the
	// median over the boots and add what the measured phase grew the
	// last fleet by.
	rss, err := f.peakRSS()
	if err != nil {
		return nil, err
	}
	o.e2e["peak_rss_mb"] = median(bootRSS) + rss - lastBoot

	// Per-layer accounting from outside the serving processes.
	perReq := 1e6 / math.Max(completed, 1)
	o.layers["gen.cpu_us_per_req"] = (g1 - g0) * perReq
	o.layers["fleet.cpu_us_per_req"] = (p1 - p0) * perReq
	o.layers["serve.cpu_us_per_req"] = (r1 - r0) * perReq
	var shareMax, shareSum float64
	for i := range s0.replicas {
		d := s1.replicas[i].value("serve_requests_total") - s0.replicas[i].value("serve_requests_total")
		shareMax = math.Max(shareMax, d)
		shareSum += d
	}
	o.layers["fleet.replica_share_max"] = shareMax / math.Max(shareSum, 1)
	for _, stage := range []string{"parse", "cache", "predict", "render"} {
		o.layers["serve.stage_"+stage+"_us"] = histP50Delta(s1, s2, "serve_stage_"+stage+"_seconds")
	}
	o.layers["serve.inline_compile_us"] = histMeanDelta(s1, s2, "core_plan_compile_seconds")
	hits := counterDelta(s0, s2, "cache_hits_total")
	misses := counterDelta(s0, s2, "cache_misses_total")
	o.layers["cache.hit_ratio"] = hits / math.Max(hits+misses, 1)
	o.layers["cache.evictions"] = counterDelta(s0, s2, "cache_evictions_total")
	o.layers["serve.coalesced"] = counterDelta(s0, s2, "serve_coalesced_requests_total")
	for metric, name := range map[string]string{
		"fleet.retries": "fleet_retries_total", "fleet.spills": "fleet_spills_total",
		"fleet.rejected": "fleet_admission_rejected_total",
	} {
		o.layers[metric] = s2.proxy.value(name) - s0.proxy.value(name)
	}
	o.layers["gen.late_p99_ms"] = quantile(open.lateMS, 0.99)

	if err := hopProbe(o, client, f, gen, tr); err != nil {
		return nil, err
	}
	ns, err := planPredictNS(model, hotNets, tr, spanRef{})
	if err != nil {
		return nil, err
	}
	o.layers["core.predict_ns"] = ns

	if tr != nil {
		// Tracing overhead: a second closed loop with a span per request;
		// the extra seconds it would need for the untraced loop's work.
		phase := tr.begin("gen.closed_loop_traced", spanRef{})
		traced := closedLoop(client, f.base, tracedList, &listPos, conns, closedWin, tr, phase)
		phase.end(nil)
		o.attempted += traced.attempted
		o.fail(traced.failed, "traced closed loop: %d of %d requests failed", traced.failed, traced.attempted)
		o.layers["trace.overhead_s"] = completed/math.Max(float64(traced.ok), 1)*closedWin.Seconds() - closedWin.Seconds()
	}
	return o, quickLabAccuracy(o, lab)
}

// hopProbe measures the proxy hop with sequential requests: the same keys
// through the proxy and straight to their ring owner, alternately.
func hopProbe(o *outcome, client *http.Client, f *servingFleet, gen *mixGen, tr *tracer) error {
	var viaMS, directMS []float64
	root := tr.begin("serve.hop_probe", spanRef{})
	defer root.end(nil)
	for round := 0; round < 5; round++ {
		for _, name := range gen.names {
			owner, status, err := get(client, f.side+"/owner?network="+name)
			if err != nil || status != http.StatusOK || len(owner) == 0 {
				return fmt.Errorf("resolving the owner of %s: status %d, %v", name, status, err)
			}
			pred, err := gen.model.PredictNetwork(gen.nets[name], 64)
			if err != nil {
				return err
			}
			r := request{target: fmt.Sprintf("/predict?network=%s&batch=64", name), want: []float64{pred.Float64() * 1e3}}
			for _, leg := range []struct {
				base string
				span string
				out  *[]float64
			}{
				{f.base, "fleet.hop_us", &viaMS},
				{"http://" + string(owner), "serve.direct_p50_us", &directMS},
			} {
				sp := tr.begin(leg.span, root)
				t0 := time.Now()
				status, ok := send(client, leg.base, &r)
				*leg.out = append(*leg.out, time.Since(t0).Seconds()*1e3)
				sp.end(nil)
				o.attempted++
				if !ok {
					o.fail(1, "probe %s%s: status %d", leg.base, r.target, status)
				}
			}
		}
	}
	via, direct := median(viaMS), median(directMS)
	o.layers["serve.direct_p50_us"] = direct * 1e3
	o.layers["fleet.hop_us"] = (via - direct) * 1e3
	return nil
}
