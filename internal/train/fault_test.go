package train

import (
	"errors"
	"strings"
	"testing"

	"hetkg/internal/ps"
)

// flakyTransport wraps a real transport and fails the n-th operation, for
// verifying that transport errors surface as clean trainer errors instead
// of panics, hangs, or silently corrupted results.
type flakyTransport struct {
	inner    ps.Transport
	failAt   int
	opCount  int
	failPull bool
	failPush bool
}

var errInjected = errors.New("injected network failure")

func (f *flakyTransport) Pull(shard int, req *ps.PullRequest) (*ps.PullResponse, error) {
	f.opCount++
	if f.failPull && f.opCount >= f.failAt {
		return nil, errInjected
	}
	return f.inner.Pull(shard, req)
}

func (f *flakyTransport) Push(shard int, req *ps.PushRequest) error {
	f.opCount++
	if f.failPush && f.opCount >= f.failAt {
		return errInjected
	}
	return f.inner.Push(shard, req)
}

func (f *flakyTransport) Close() error { return f.inner.Close() }

func TestTrainerSurfacesPullFailure(t *testing.T) {
	for _, mode := range []string{"pull", "push"} {
		t.Run(mode, func(t *testing.T) {
			cfg := testConfig(t, 2)
			cfg.Epochs = 1
			cfg.EvalEvery = -1
			cfg.hooks.wrapInProc = func(inner ps.Transport) (ps.Transport, error) {
				return &flakyTransport{
					inner:    inner,
					failAt:   25,
					failPull: mode == "pull",
					failPush: mode == "push",
				}, nil
			}
			_, err := cfg.run()
			if err == nil {
				t.Fatal("trainer swallowed a transport failure")
			}
			if !errors.Is(err, errInjected) && !strings.Contains(err.Error(), "injected") {
				t.Errorf("error does not identify the cause: %v", err)
			}
		})
	}
}

func TestTrainerSurfacesEarlyFailure(t *testing.T) {
	// Failing the very first operation exercises the cache-build path.
	cfg := testConfig(t, 2)
	cfg.Epochs = 1
	cfg.EvalEvery = -1
	cfg.hooks.wrapInProc = func(inner ps.Transport) (ps.Transport, error) {
		return &flakyTransport{inner: inner, failAt: 1, failPull: true}, nil
	}
	if _, err := cfg.run(); err == nil {
		t.Fatal("first-pull failure swallowed")
	}
	// DGL-KE path too.
	cfg2 := testConfig(t, 2)
	cfg2.Epochs = 1
	cfg2.EvalEvery = -1
	cfg2.hooks.wrapInProc = func(inner ps.Transport) (ps.Transport, error) {
		return &flakyTransport{inner: inner, failAt: 1, failPull: true}, nil
	}
	cfg2.System = SystemDGLKE
	if _, err := cfg2.run(); err == nil {
		t.Fatal("DGL-KE first-pull failure swallowed")
	}
}

func TestTransportConstructionFailure(t *testing.T) {
	cfg := testConfig(t, 1)
	cfg.hooks.wrapInProc = func(inner ps.Transport) (ps.Transport, error) {
		return nil, errors.New("cannot reach cluster")
	}
	cfg.System = SystemDGLKE
	if _, err := cfg.run(); err == nil || !strings.Contains(err.Error(), "cannot reach cluster") {
		t.Fatalf("transport construction error not surfaced: %v", err)
	}
}
