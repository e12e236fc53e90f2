// Package metrics provides the small measurement toolkit used by the
// experiment harness: log-linear latency histograms, summary statistics,
// and fixed-width table rendering for paper-style output.
package metrics
