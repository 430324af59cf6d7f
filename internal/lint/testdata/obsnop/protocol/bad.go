// Package protocol is a golden-file fixture for the obsnop analyzer: a
// hot-path package constructing its own recorders instead of accepting
// one through its API.
package protocol

import "repro/internal/obs"

// node buries a privately built registry, hiding its metrics from the
// binary's exporter.
type node struct {
	rec obs.Recorder
}

func newNode() *node {
	return &node{rec: obs.NewRegistry()} // want "obsnop"
}

func literalRegistry() *obs.Registry {
	return &obs.Registry{} // want "obsnop"
}

// goodNode is the compliant shape: the recorder arrives from outside and
// defaults to the no-op.
func goodNode(rec obs.Recorder) *node {
	return &node{rec: obs.OrNop(rec)}
}

var (
	_ = newNode
	_ = literalRegistry
	_ = goodNode
)
