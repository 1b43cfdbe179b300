package serve

import (
	"errors"
	"sync"
	"testing"

	"github.com/tintmalloc/tintmalloc/internal/phys"
	"github.com/tintmalloc/tintmalloc/internal/topology"
)

func newCloseTestServer(t *testing.T) *Server {
	t.Helper()
	topo := topology.Opteron6128()
	m, err := phys.DefaultSeparable(64<<20, topo.Nodes())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(topo, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCloseIdempotent pins the repeated-shutdown contract: every
// Close call — first, second, concurrent — returns only after the
// background workers have exited, and none panics on the
// already-closed stop channel.
func TestCloseIdempotent(t *testing.T) {
	s := newCloseTestServer(t)
	s.Close()
	s.Close() // regression: second close used to double-close s.stop
	if _, err := s.NewClient(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("NewClient after close: %v, want ErrClosed", err)
	}
}

// TestConcurrentClose races many Close calls against live allocation
// traffic. Run under -race this is the real assertion: no double
// channel close, no data race between a closing server and a refill
// under way, and every closer blocks until workers are gone.
func TestConcurrentClose(t *testing.T) {
	for round := 0; round < 8; round++ {
		s := newCloseTestServer(t)
		c, err := s.NewClient(0)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < 200; j++ {
					f, err := c.Alloc()
					if err != nil {
						if errors.Is(err, ErrClosed) {
							return
						}
						continue // ErrBusy/ErrNoMemory: keep pressing
					}
					if err := c.Free(f); err != nil && errors.Is(err, ErrClosed) {
						return
					}
				}
			}()
		}
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.Close()
				// After any Close returns, the server must already be
				// refusing new work: the workers are joined.
				if _, err := s.NewClient(1); !errors.Is(err, ErrClosed) {
					t.Errorf("NewClient after close: %v, want ErrClosed", err)
				}
			}()
		}
		wg.Wait()
	}
}
