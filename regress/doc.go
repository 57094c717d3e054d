// Package regress holds the persistent, replayable regression corpus:
// every JSON file under cases/ is one shrunk divergence a hunt once
// found (differential or metamorphic-oracle verdict), captured with the
// schema DDL, data, trigger statement and fault configuration that
// provoked it. The replay test re-executes every case through a fresh
// server/oracle stack and asserts the recorded divergence still
// reproduces under the recorded verdict source — so a refactor that
// silently repairs the fault injection path, the comparator, or a
// self-check oracle fails loudly instead of rotting the hunt.
//
// Grow the corpus from any hunt with `divfuzz -regress-out regress/cases`
// (export is deduplicated by verdict fingerprint: existing case files
// are never rewritten). Each case is one difftest.Report in its JSON
// form; see "The persistent regression corpus" in ARCHITECTURE.md for
// the layout and curation notes.
package regress
