package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitmat"
	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/gateway"
	"repro/internal/httpapi"
	"repro/internal/index"
	"repro/internal/mathx"
	"repro/internal/metrics"
	"repro/internal/privacy"
	"repro/internal/replica"
	"repro/internal/workload"
)

// Fixed shape of every workload's deployment.
const (
	providers  = 1000 // m
	shardCount = 4    // one node per shard
	zipfS      = 1.1  // membership-frequency and owner-popularity skew
	gamma      = 0.9  // Chernoff success-ratio target γ
	epsLow     = 0.2  // per-owner ε drawn uniformly from [epsLow, epsHigh]
	epsHigh    = 0.8
	keepEpochs = 2 // retention on the origin and every mirror
)

// genData draws the membership matrix and per-owner ε from the seed.
func genData(seed int64, owners int) (*workload.Dataset, error) {
	return workload.GenerateZipf(workload.ZipfConfig{
		Providers: providers, Owners: owners, Exponent: zipfS,
		EpsLow: epsLow, EpsHigh: epsHigh, Seed: seed,
	})
}

// coreConfig is the construction configuration: the Chernoff policy with
// γ = 0.9, and in secure mode the eppi-construct -secure defaults (c = 3,
// dealer triples, in-memory transport, default batch size, arithmetic
// and evaluator).
func coreConfig(seed int64, secure bool) core.Config {
	cfg := core.Config{Policy: mathx.PolicyChernoff, Gamma: gamma, Mode: core.ModeTrusted, Seed: seed}
	if secure {
		cfg.Mode = core.ModeSecure
		cfg.C = 3
	}
	return cfg
}

// built is one constructed, audited and published epoch.
type built struct {
	res       *core.Result
	rep       *privacy.Report
	epoch     uint64
	construct time.Duration
	audit     time.Duration
	publish   time.Duration
}

// buildEpoch runs construction, the privacy audit and the epoch publish,
// each inside its own span.
func buildEpoch(ctx context.Context, rec *recorder, parent int32, pub *epoch.Publisher, d *workload.Dataset, cfg core.Config) (built, error) {
	var b built
	var err error
	b.construct, err = rec.timed("core.construct", parent, func(int32) error {
		b.res, err = core.ConstructCtx(ctx, d.Matrix, d.Eps, cfg)
		return err
	})
	if err != nil {
		return b, fmt.Errorf("construct: %w", err)
	}
	var det *privacy.Detail
	b.audit, err = rec.timed("privacy.compute", parent, func(int32) error {
		b.rep, det, err = privacy.Compute(privacy.Input{
			Truth: d.Matrix, Published: b.res.Published, Names: d.Names, Eps: d.Eps,
			Thresholds: b.res.Thresholds, Hidden: b.res.Hidden,
			Policy: cfg.Policy.String(), Gamma: cfg.Gamma,
			Lambda: b.res.Lambda, Xi: b.res.Xi,
		})
		return err
	})
	if err != nil {
		return b, fmt.Errorf("privacy audit: %w", err)
	}
	b.publish, err = rec.timed("epoch.publish", parent, func(int32) error {
		b.epoch, err = pub.PublishWithReport(b.res.Published, d.Names, shardCount, b.rep, det)
		return err
	})
	if err != nil {
		return b, fmt.Errorf("publish: %w", err)
	}
	return b, nil
}

// httpServer is a loopback HTTP server whose close waits for its serve
// loop to return.
type httpServer struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func serveHTTP(h http.Handler) (*httpServer, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &httpServer{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second},
		url:  "http://" + l.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(l) // returns http.ErrServerClosed on close
	}()
	return s, nil
}

func (s *httpServer) close() {
	if s == nil {
		return
	}
	_ = s.srv.Close() // the listener is ours; nothing to report on shutdown
	<-s.done
}

// node is one shard server: a mirror of the origin store, the loaded
// shard and the HTTP front that serves it, as eppi-serve -epoch-origin
// runs it.
type node struct {
	k       int
	root    string
	reg     *metrics.Registry
	mirror  *replica.Mirror
	handler *httpapi.Handler
	front   *httpServer
	shard   atomic.Pointer[index.Server]
}

// fleet is the deployment under test: an origin store served by
// replica.Origin, shardCount mirrored nodes and one gateway.
type fleet struct {
	dir    string
	pub    *epoch.Publisher
	origin *httpServer
	nodes  []*node
	gw     *gateway.Gateway
	greg   *metrics.Registry
	front  *httpServer
	client *http.Client // mirrors' client, closed with the fleet
}

func newFleet(dir string) (*fleet, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, fmt.Errorf("clear %s: %w", dir, err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("create %s: %w", dir, err)
	}
	return &fleet{
		dir:    dir,
		pub:    &epoch.Publisher{Root: filepath.Join(dir, "origin"), Keep: keepEpochs},
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: shardCount}},
	}, nil
}

// nodeStep times one node's part of a boot or a swap.
type nodeStep struct {
	sync, load, swap time.Duration
}

// boot starts the origin, then every node (mirror sync, LoadAt, HTTP
// front, in parallel as separate machines would), then the gateway.
func (f *fleet) boot(ctx context.Context, rec *recorder, parent int32) ([]nodeStep, error) {
	var err error
	if f.origin, err = serveHTTP(replica.NewOrigin(f.pub.Root)); err != nil {
		return nil, err
	}
	for k := 0; k < shardCount; k++ {
		reg := metrics.NewRegistry()
		root := filepath.Join(f.dir, "node-"+strconv.Itoa(k))
		f.nodes = append(f.nodes, &node{k: k, root: root, reg: reg, mirror: &replica.Mirror{
			Origin: f.origin.url, Root: root, Keep: keepEpochs, Registry: reg, Client: f.client,
		}})
	}
	steps, err := f.forEachNode(ctx, rec, parent, func(nd *node, srv *index.Server, rep *privacy.Report) error {
		h, err := httpapi.NewHandler(srv, httpapi.WithMetrics(nd.reg))
		if err != nil {
			return err
		}
		h.SetReport(rep)
		nd.handler = h
		nd.front, err = serveHTTP(h)
		return err
	})
	if err != nil {
		return nil, err
	}
	f.greg = metrics.NewRegistry()
	cfg := gateway.Config{Registry: f.greg}
	for _, nd := range f.nodes {
		cfg.Shards = append(cfg.Shards, []string{nd.front.url})
	}
	if f.gw, err = gateway.New(cfg); err != nil {
		return nil, fmt.Errorf("gateway: %w", err)
	}
	if f.front, err = serveHTTP(f.gw); err != nil {
		return nil, err
	}
	return steps, nil
}

// swapAll has every node pull the origin's new epoch, load its shard and
// swap it in, all nodes in parallel.
func (f *fleet) swapAll(ctx context.Context, rec *recorder, parent int32) ([]nodeStep, error) {
	return f.forEachNode(ctx, rec, parent, func(nd *node, srv *index.Server, rep *privacy.Report) error {
		if err := nd.handler.Swap(srv); err != nil {
			return err
		}
		nd.handler.SetReport(rep)
		return nil
	})
}

// forEachNode runs Mirror.Sync → epoch.LoadAt → install on every node in
// parallel and waits for all of them.
func (f *fleet) forEachNode(ctx context.Context, rec *recorder, parent int32,
	install func(nd *node, srv *index.Server, rep *privacy.Report) error) ([]nodeStep, error) {
	steps := make([]nodeStep, len(f.nodes))
	errs := make([]error, len(f.nodes))
	var wg sync.WaitGroup
	for i, nd := range f.nodes {
		wg.Add(1)
		go func(i int, nd *node) {
			defer wg.Done()
			errs[i] = f.nodeUpdate(ctx, rec, parent, nd, &steps[i], install)
		}(i, nd)
	}
	wg.Wait()
	return steps, errors.Join(errs...)
}

func (f *fleet) nodeUpdate(ctx context.Context, rec *recorder, parent int32, nd *node, st *nodeStep,
	install func(nd *node, srv *index.Server, rep *privacy.Report) error) error {
	var n uint64
	var err error
	st.sync, err = rec.timed("replica.sync", parent, func(int32) error {
		n, err = nd.mirror.Sync(ctx)
		if err == nil && n == 0 {
			err = errors.New("origin had no new epoch")
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("node %d: sync: %w", nd.k, err)
	}
	var srv *index.Server
	st.load, err = rec.timed("epoch.load", parent, func(int32) error {
		srv, err = epoch.LoadAt(nd.root, n, nd.k, shardCount)
		return err
	})
	if err != nil {
		return fmt.Errorf("node %d: %w", nd.k, err)
	}
	rep, err := epoch.LoadReportAt(nd.root, n)
	if err != nil {
		return fmt.Errorf("node %d: %w", nd.k, err)
	}
	st.swap, err = rec.timed("httpapi.swap", parent, func(int32) error {
		return install(nd, srv, rep)
	})
	if err != nil {
		return fmt.Errorf("node %d: %w", nd.k, err)
	}
	nd.shard.Store(srv)
	return nil
}

// close stops the gateway, every node and the origin, and waits for each.
func (f *fleet) close() {
	f.front.close()
	if f.gw != nil {
		f.gw.Close()
	}
	for _, nd := range f.nodes {
		nd.front.close()
	}
	f.origin.close()
	f.client.CloseIdleConnections()
}

// epochBytes is the on-disk size of epoch n in store root.
func epochBytes(root string, n uint64) (int64, error) {
	var total int64
	err := filepath.WalkDir(epoch.Dir(root, n), func(_ string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// addMemberships returns a copy of truth with frac of its memberships
// added as fresh (previously unset) provider–owner pairs.
func addMemberships(truth *bitmat.Matrix, frac float64, seed int64) *bitmat.Matrix {
	next := truth.Clone()
	want := int(frac * float64(truth.Count()))
	rng := rand.New(rand.NewSource(seed))
	for added := 0; added < want; {
		i, j := rng.Intn(next.Rows()), rng.Intn(next.Cols())
		if !next.Get(i, j) {
			next.Set(i, j, true)
			added++
		}
	}
	return next
}
