package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/pipeline"
	"repro/internal/rng"
)

// DefaultScheme is the registry name of the paper's own pipeline.
const DefaultScheme = "vehicle-key"

// SchemeBuilder constructs one scheme's stage assignment. cfg arrives
// normalized; src is the scheme's construction randomness (stateful —
// builders must derive from it in a fixed order, or not at all).
type SchemeBuilder func(cfg Config, src *rng.Source) (pipeline.Stages, error)

var (
	schemeMu       sync.RWMutex
	schemeRegistry = map[string]SchemeBuilder{}
)

// RegisterScheme adds a scheme builder under name. Packages register in
// init (the database/sql driver pattern: importing a scheme package,
// possibly blank, makes its schemes available). Re-registering a name
// panics — two packages claiming one name is a wiring bug.
func RegisterScheme(name string, b SchemeBuilder) {
	schemeMu.Lock()
	defer schemeMu.Unlock()
	if _, dup := schemeRegistry[name]; dup {
		panic("core: scheme registered twice: " + name)
	}
	schemeRegistry[name] = b
}

// SchemeNames lists the registered schemes, sorted.
func SchemeNames() []string {
	schemeMu.RLock()
	defer schemeMu.RUnlock()
	out := make([]string, 0, len(schemeRegistry))
	for name := range schemeRegistry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// SchemeRegistered reports whether name resolves in the registry (""
// means DefaultScheme and always resolves). It consumes no randomness,
// so callers can fail fast on a bad name before paying for dataset or
// model construction.
func SchemeRegistered(name string) bool {
	if name == "" {
		return true
	}
	schemeMu.RLock()
	defer schemeMu.RUnlock()
	_, ok := schemeRegistry[name]
	return ok
}

// ErrUnknownScheme wraps scheme lookup failures.
type ErrUnknownScheme struct {
	Name  string
	Known []string
}

func (e *ErrUnknownScheme) Error() string {
	return fmt.Sprintf("core: unknown scheme %q (registered: %s)", e.Name, strings.Join(e.Known, ", "))
}

// NewScheme builds an untrained System for the named scheme ("" means
// DefaultScheme). The result satisfies pipeline.Scheme, so the
// protocol, experiment, and NIST layers drive it exactly like the
// default pipeline.
func NewScheme(name string, cfg Config, src *rng.Source) (*System, error) {
	if name == "" {
		name = DefaultScheme
	}
	schemeMu.RLock()
	b, ok := schemeRegistry[name]
	schemeMu.RUnlock()
	if !ok {
		return nil, &ErrUnknownScheme{Name: name, Known: SchemeNames()}
	}
	cfg.Normalize()
	st, err := b(cfg, src)
	if err != nil {
		return nil, fmt.Errorf("core: building scheme %q: %w", name, err)
	}
	st.Scheme = name
	return newSystem(cfg, st), nil
}

func init() {
	RegisterScheme(DefaultScheme, func(cfg Config, src *rng.Source) (pipeline.Stages, error) {
		return New(cfg, src).Stages, nil
	})
}
