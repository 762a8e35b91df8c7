package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/device"
	"repro/internal/fedora"
	"repro/internal/fl"
	"repro/internal/persist"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/wire"
)

// Deployment shapes a workload can run in.
const (
	deployInProc  = "inproc"  // fl.New: controller in the trainer's process
	deployHTTP    = "http"    // trainer → one api.Server over the v2 HTTP API
	deployCluster = "cluster" // trainer → coordinator → member api.Servers
)

// workload is one named benchmark configuration. Every workload trains
// the same model shape (Dim 16, ε = 1, a 100K-row table); they differ
// in the dataset's sharing, the round shape and where the controller
// lives, so that each one stresses a different set of layers.
type workload struct {
	name     string
	why      string
	dataset  string // "movielens" or "taobao"
	clients  int    // clients per round
	shards   int    // global shard count S
	prefetch bool   // LAORAM-style stage/begin pipeline
	encrypt  bool   // TEE sealing of off-chip structures
	codec    string // fl.Config.UploadCodec ("" = legacy float uploads)
	deploy   string
	storage  string // "sim" or "file"
}

var workloads = []workload{
	{
		name:    "inproc-tee",
		why:     "ORAM path work, stash/eviction, TEE seal/open and the S=1 path do almost all the work; no HTTP",
		dataset: "movielens", clients: 50, shards: 1, encrypt: true,
		deploy: deployInProc, storage: "sim",
	},
	{
		name:    "http-prefetch",
		why:     "JSON rows cross the v2 wire both ways while the sharded engine and prefetch pipeline hide the ORAM read",
		dataset: "taobao", clients: 50, shards: 4, prefetch: true,
		deploy: deployHTTP, storage: "sim",
	},
	{
		name:    "cluster-durable",
		why:     "member fan-out, round-WAL fsync, secagg masking/unmasking, binary FWR1 uploads and real file I/O",
		dataset: "movielens", clients: 20, shards: 2, codec: "masked-sparse",
		deploy: deployCluster, storage: "file",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Table size shared by every workload.
const (
	numItems = 100_000
	numUsers = 2000
)

// makeDataset generates the workload's synthetic dataset from seed.
func makeDataset(w workload, seed int64) *dataset.Dataset {
	cfg := dataset.MovieLensConfig()
	if w.dataset == "taobao" {
		cfg = dataset.TaobaoConfig()
	}
	cfg.NumItems, cfg.NumUsers, cfg.Seed = numItems, numUsers, seed
	return dataset.Generate(cfg)
}

// flConfig is the trainer configuration of workload w. Workers is the
// host's CPU count; the storage directory is filled in by setup.
func flConfig(w workload, ds *dataset.Dataset, seed int64) fl.Config {
	cfg := fl.Config{
		Dataset: ds, Dim: 16, Hidden: 32, UsePrivate: true,
		Epsilon: 1, ClientsPerRound: w.clients, MaxFeaturesPerClient: 100,
		LocalLR: 0.1, LocalEpochs: 1, Seed: seed,
		Workers: runtime.NumCPU(), Shards: w.shards,
		Prefetch: w.prefetch, Encrypt: w.encrypt, UploadCodec: w.codec,
	}
	if w.dataset == "movielens" {
		cfg.Dropout = 0.5
	}
	return cfg
}

// served is one in-process serving controller and the first global row
// it owns. The benchmark reads the model back through these directly:
// PeekRow over HTTP would cost seconds per 100K rows.
type served struct {
	ctrl    *fedora.Controller
	rowBase uint64
}

// deployment is one built instance of a workload: the trainer, the
// controllers serving it, and what must be torn down afterwards.
type deployment struct {
	trainer *fl.Trainer
	servers []served       // ascending rowBase
	sdk     *client.Client // the trainer's SDK client; nil in process
	walPath string         // the coordinator's round WAL; "" without one
	closers []func() error
}

// peekRow reads a global row from the serving controller that owns it.
func (d *deployment) peekRow(row uint64) ([]float32, error) {
	for i := len(d.servers) - 1; i >= 0; i-- {
		if s := d.servers[i]; row >= s.rowBase {
			return s.ctrl.PeekRow(row - s.rowBase)
		}
	}
	return nil, fmt.Errorf("perfbench: row %d has no owner", row)
}

// ssdStats sums the main-device counters of every serving controller.
func (d *deployment) ssdStats() device.Stats {
	var st device.Stats
	for _, s := range d.servers {
		st.Add(s.ctrl.SSDStats())
	}
	return st
}

func (d *deployment) sdkStats() client.Stats {
	if d.sdk == nil {
		return client.Stats{}
	}
	return d.sdk.Stats()
}

// close tears the deployment down in reverse build order.
func (d *deployment) close() error {
	var first error
	for i := len(d.closers) - 1; i >= 0; i-- {
		if err := d.closers[i](); err != nil && first == nil {
			first = err
		}
	}
	d.closers = nil
	return first
}

// localPeek forwards an orchestrator but answers PeekRow from the
// in-process serving controllers, so evaluation and fingerprinting of a
// remote deployment do not pay one HTTP request per row.
type localPeek struct {
	fl.Orchestrator
	peek func(row uint64) ([]float32, error)
}

func (o *localPeek) PeekRow(row uint64) ([]float32, error) { return o.peek(row) }

// localPeekStager keeps the wrapped orchestrator's two-phase leg visible
// to the trainer.
type localPeekStager struct{ *localPeek }

func (o localPeekStager) StageRound(requests [][]uint64) error {
	return o.Orchestrator.(fl.RoundStager).StageRound(requests)
}

func withLocalPeek(o fl.Orchestrator, peek func(uint64) ([]float32, error)) fl.Orchestrator {
	lp := &localPeek{Orchestrator: o, peek: peek}
	if _, ok := o.(fl.RoundStager); ok {
		return localPeekStager{lp}
	}
	return lp
}

// newTransport is an HTTP transport holding at most n connections per
// host, so a closed loop with n workers opens no more than n.
func newTransport(n int) *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxConnsPerHost = n
	t.MaxIdleConnsPerHost = n
	return t
}

// setup builds workload w for cfg. dir is an empty scratch directory for
// file-backed storage and the coordinator's durable state. With tr
// non-nil every layer boundary is wrapped for tracing; tr == nil builds
// the plain deployment the end-to-end metrics are measured on.
func setup(w workload, cfg fl.Config, dir string, tr *tracer) (d *deployment, err error) {
	d = &deployment{}
	defer func() {
		if err != nil {
			_ = d.close()
			d = nil
		}
	}()
	if w.storage == "file" {
		cfg.Storage = storage.Spec{Kind: storage.KindFile, Dir: dir}
	}
	if tr != nil {
		cfg.WrapDevice = tr.wrapDevice
	}
	switch w.deploy {
	case deployInProc:
		if tr == nil {
			t, err := fl.New(cfg)
			if err != nil {
				return d, err
			}
			d.closers = append(d.closers, t.Close)
			d.trainer = t
			d.servers = []served{{ctrl: t.Controller()}}
			return d, nil
		}
		ctrl, err := fl.BuildController(cfg)
		if err != nil {
			return d, err
		}
		d.closers = append(d.closers, ctrl.Close)
		d.servers = []served{{ctrl: ctrl}}
		d.trainer, err = fl.NewWithOrchestrator(cfg, tr.orchestrator(newCtrlOrch(ctrl)))
		return d, err

	case deployHTTP:
		ctrl, err := fl.BuildController(cfg)
		if err != nil {
			return d, err
		}
		d.closers = append(d.closers, ctrl.Close)
		d.servers = []served{{ctrl: ctrl}}
		h := api.NewServer(ctrl).Handler()
		if tr != nil {
			h = tr.handler(layerAPI, &tr.api, h)
		}
		srv := httptest.NewServer(h)
		d.closers = append(d.closers, closeServer(srv))
		return d, d.connectTrainer(cfg, srv.URL, tr)

	case deployCluster:
		return d, d.buildCluster(w, cfg, dir, tr)
	}
	return d, fmt.Errorf("perfbench: unknown deployment %q", w.deploy)
}

// buildCluster starts one member api.Server per global shard, each on
// its own storage directory, and a durable coordinator in front of them.
func (d *deployment) buildCluster(w workload, cfg fl.Config, dir string, tr *tracer) error {
	global, err := fl.ControllerConfig(cfg)
	if err != nil {
		return err
	}
	var nodes []cluster.NodeSpec
	for n := 0; n < w.shards; n++ {
		sub, err := fedora.SliceConfig(global, n, 1)
		if err != nil {
			return err
		}
		sub.Storage.Dir = filepath.Join(dir, fmt.Sprintf("member%d", n))
		if err := os.MkdirAll(sub.Storage.Dir, 0o755); err != nil {
			return err
		}
		ctrl, err := fedora.New(sub)
		if err != nil {
			return err
		}
		d.closers = append(d.closers, ctrl.Close)
		d.servers = append(d.servers, served{ctrl: ctrl, rowBase: shard.Base(global.NumRows, w.shards, n)})
		h := api.NewServer(ctrl).Handler()
		if tr != nil {
			h = tr.handler(layerMember, &tr.memberSrv, h)
		}
		srv := httptest.NewServer(h)
		d.closers = append(d.closers, closeServer(srv))
		nodes = append(nodes, cluster.NodeSpec{URL: srv.URL, First: n, Count: 1})
	}
	mgr, err := persist.OpenManager(filepath.Join(dir, "coordinator"))
	if err != nil {
		return err
	}
	d.walPath = mgr.WALPath()
	var rt http.RoundTripper = newTransport(runtime.NumCPU())
	if tr != nil {
		rt = tr.transport(layerMemberCall, &tr.member, rt)
	}
	co, err := cluster.New(cluster.Config{
		Fedora: global,
		Nodes:  nodes,
		Client: client.Config{
			Timeout: 30 * time.Second, MaxRetries: 2, RetrySeed: cfg.Seed,
			HTTPClient: &http.Client{Transport: rt},
		},
		Manager: mgr,
		// The measured loop exercises the per-round WAL only: a cluster
		// checkpoint (every shard's snapshot pulled over HTTP) would land
		// in a few rounds and dominate their latency.
		CheckpointEvery: 1 << 30,
		ProbeInterval:   time.Second,
	})
	if err != nil {
		return err
	}
	co.StartProbes()
	d.closers = append(d.closers, func() error { co.StopProbes(); return nil })
	mux := http.NewServeMux()
	co.RegisterRoutes(mux)
	codec, err := wire.ParseCodec(w.codec)
	if err != nil {
		return err
	}
	mux.Handle("/", api.NewServerFor(co, api.WithUploadCodec(codec)).Handler())
	var h http.Handler = mux
	if tr != nil {
		h = tr.handler(layerAPI, &tr.api, h)
	}
	front := httptest.NewServer(h)
	d.closers = append(d.closers, closeServer(front))
	return d.connectTrainer(cfg, front.URL, tr)
}

// connectTrainer builds the SDK client and the remote trainer.
func (d *deployment) connectTrainer(cfg fl.Config, url string, tr *tracer) error {
	var rt http.RoundTripper = newTransport(runtime.NumCPU())
	if tr != nil {
		rt = tr.transport(layerClient, &tr.client, rt)
	}
	sdk, err := client.New(client.Config{
		BaseURL: url, Timeout: 30 * time.Second, RetrySeed: cfg.Seed,
		HTTPClient: &http.Client{Transport: rt},
	})
	if err != nil {
		return err
	}
	d.sdk = sdk
	var orch fl.Orchestrator = client.NewOrchestrator(context.Background(), sdk)
	if tr != nil {
		orch = tr.orchestrator(withLocalPeek(orch, d.peekRow))
	} else {
		orch = withLocalPeek(orch, d.peekRow)
	}
	d.trainer, err = fl.NewWithOrchestrator(cfg, orch)
	return err
}

func closeServer(s *httptest.Server) func() error {
	return func() error { s.Close(); return nil }
}

// ctrlOrch adapts an in-process controller to fl.Orchestrator for the
// traced in-process deployment (fl.New keeps its own adapter private).
// Like that adapter it caches the round number BeginRound opened, so
// Round() stays stable while a staged next round begins on a controller
// background goroutine.
type ctrlOrch struct {
	ctrl  *fedora.Controller
	mu    sync.Mutex
	round uint64
	begun bool
}

func newCtrlOrch(ctrl *fedora.Controller) *ctrlOrch { return &ctrlOrch{ctrl: ctrl} }

func (o *ctrlOrch) BeginRound(requests [][]uint64) (fl.RoundHandle, error) {
	r, err := o.ctrl.BeginRound(requests)
	if err != nil {
		return nil, err
	}
	o.mu.Lock()
	o.round, o.begun = r.Number(), true
	o.mu.Unlock()
	return r, nil
}

func (o *ctrlOrch) StageRound(requests [][]uint64) error { return o.ctrl.StageRound(requests) }

func (o *ctrlOrch) Round() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.begun {
		return o.round
	}
	return o.ctrl.Round()
}

func (o *ctrlOrch) EffectiveEpsilon() float64             { return o.ctrl.EffectiveEpsilon() }
func (o *ctrlOrch) PeekRow(row uint64) ([]float32, error) { return o.ctrl.PeekRow(row) }
