package cc_test

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/trace"
)

// rwFixture: one microprotocol with a read-only "peek" handler and a
// writing "poke" handler, plus a read-only-only microprotocol.
type rwFixture struct {
	s      *core.Stack
	rec    *trace.Recorder
	data   *core.Microprotocol // peek (RO) + poke (RW)
	stats  *core.Microprotocol // count (RO only)
	ePeek  *core.EventType
	ePoke  *core.EventType
	eCount *core.EventType
	val    int
}

func newRWFixture(peek, count core.HandlerFunc) *rwFixture {
	f := &rwFixture{rec: trace.NewRecorder()}
	f.s = core.NewStack(cc.NewVCARW(), core.WithTracer(f.rec))
	f.data = core.NewMicroprotocol("data")
	f.stats = core.NewMicroprotocol("stats")
	if peek == nil {
		peek = nop
	}
	if count == nil {
		count = nop
	}
	hPeek := f.data.AddHandler("peek", peek, core.ReadOnly())
	hPoke := f.data.AddHandler("poke", func(*core.Context, core.Message) error {
		f.val++
		return nil
	})
	hCount := f.stats.AddHandler("count", count, core.ReadOnly())
	f.s.Register(f.data, f.stats)
	f.ePeek, f.ePoke, f.eCount = core.NewEventType("peek"), core.NewEventType("poke"), core.NewEventType("count")
	f.s.Bind(f.ePeek, hPeek)
	f.s.Bind(f.ePoke, hPoke)
	f.s.Bind(f.eCount, hCount)
	return f
}

func TestVCARWName(t *testing.T) {
	if cc.NewVCARW().Name() != "vca-rw" {
		t.Fatal("name")
	}
}

// TestVCARWReadersShare: two computations that only read stats overlap.
func TestVCARWReadersShare(t *testing.T) {
	hold := make(chan struct{})
	entered := make(chan struct{}, 2)
	f := newRWFixture(nil, func(*core.Context, core.Message) error {
		entered <- struct{}{}
		<-hold
		return nil
	})
	spec := core.Access(f.stats)
	done := make(chan error, 2)
	go func() { done <- f.s.External(spec, f.eCount, nil) }()
	go func() { done <- f.s.External(spec, f.eCount, nil) }()
	// Both readers must be inside the handler simultaneously.
	timeout := time.After(2 * time.Second)
	for i := 0; i < 2; i++ {
		select {
		case <-entered:
		case <-timeout:
			t.Fatal("readers did not overlap")
		}
	}
	close(hold)
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestVCARWWriterExcludesReaders: a computation that may write the data
// microprotocol serializes against later computations on it.
func TestVCARWWriterExcludesReaders(t *testing.T) {
	hold := make(chan struct{})
	inWriter := make(chan struct{})
	f := newRWFixture(nil, nil)
	// Writer occupies data via poke, then lingers.
	wDone := make(chan error, 1)
	go func() {
		wDone <- f.s.Isolated(core.Access(f.data), func(ctx *core.Context) error {
			if err := ctx.Trigger(f.ePoke, nil); err != nil {
				return err
			}
			close(inWriter)
			<-hold
			return nil
		})
	}()
	<-inWriter
	// A later computation on data must wait for the writer, even though
	// it would only peek (the data microprotocol has a writing handler,
	// so an Access spec makes it a writer-mode computation; use a route
	// spec narrowed to peek to be a reader — still must wait for the
	// admitted writer).
	g := core.NewRouteGraph().Root(f.data.Handler("peek"))
	rDone := make(chan error, 1)
	go func() { rDone <- f.s.External(core.Route(g), f.ePeek, nil) }()
	select {
	case <-rDone:
		t.Fatal("reader overlapped an active writer")
	case <-time.After(50 * time.Millisecond):
	}
	close(hold)
	if err := <-wDone; err != nil {
		t.Fatal(err)
	}
	if err := <-rDone; err != nil {
		t.Fatal(err)
	}
}

// TestVCARWReadOnlyEnforced: a reader-mode computation calling a writing
// handler gets a ReadOnlyViolationError.
func TestVCARWReadOnlyEnforced(t *testing.T) {
	f := newRWFixture(nil, nil)
	// Route spec over peek only → reader of data; then call poke.
	g := core.NewRouteGraph().Root(f.data.Handler("peek"))
	err := f.s.External(core.Route(g), f.ePoke, nil)
	var ro *core.ReadOnlyViolationError
	if !errors.As(err, &ro) || ro.Handler != "poke" {
		t.Fatalf("err = %v", err)
	}
}

// TestVCARWSerializableUnderMix: random mixes of readers and writers stay
// serializable with no lost updates.
func TestVCARWSerializableUnderMix(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f := newRWFixture(nil, nil)
		n := 4 + rng.Intn(8)
		var wg sync.WaitGroup
		writes := 0
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				writes++
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := f.s.External(core.Access(f.data), f.ePoke, nil); err != nil {
						t.Error(err)
					}
				}()
			} else {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := f.s.External(core.Access(f.stats), f.eCount, nil); err != nil {
						t.Error(err)
					}
				}()
			}
		}
		wg.Wait()
		if f.val != writes {
			t.Errorf("val = %d, want %d", f.val, writes)
		}
		// Reader overlaps on stats are legal: exclude the read-only
		// microprotocol from the conflict check by construction (the
		// recorder sees them, so check only that writers serialized —
		// data accesses must be serializable).
		return !t.Failed()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
