// Package registry implements the model collection behind the paper's
// serving story (§5, "when a new tuning request arrives"): trained agents
// persisted on disk and keyed by a workload fingerprint, so a new tuning
// request can be matched against previously trained models and fine-tune
// the closest one instead of training from scratch.
//
// Each entry is one file (<id>.model), written atomically
// (vfs.WriteAtomic: temp file, fsync, rename, directory fsync). Its
// payload is a little-endian uint32 length, that many bytes of
// gob-encoded Meta, and then the serialized agent verbatim (the
// ddpg.Agent.Save bytes, never re-encoded). The payload is followed by
// the 8-byte CRC32 integrity footer checkpoints also use, tagged "reg2".
// A torn or bit-flipped entry is detected and skipped loudly rather than
// served. Reads slice the model straight out of the verified file
// buffer, so a lookup makes no copy of the model beyond the file read.
// An entry framed "reg1" (the earlier all-gob layout) is refused with a
// reason naming the older version. Repeated fine-tunes of the same model
// update the entry in place and bump its version instead of duplicating
// it; when the collection outgrows MaxEntries, the least-recently-updated
// unpinned entry is evicted (Promote pins an entry against eviction).
//
// Fingerprints are built from the normalized metric state at the default
// configuration (Fingerprint). The dynamic serving loop also matches on
// fingerprints built from the *live* state mid-drift; those approximate
// the canonical default-config fingerprint — the serving configuration
// skews some metrics — but stay in the same normalized space, and the
// NearestWithin radius bounds how wrong an approximate match can be
// before warm-seeding is skipped.
//
// All methods are safe for concurrent use by multiple serving sessions.
//
// # Multi-process sharing
//
// Shared layers file-lease coordination and a write-ahead change log over
// the same directory so N serve processes share one registry. Mutations
// (Put/Promote/Delete and the evictions they trigger) run under the
// registry write lease — a lease file (registry.lease) holding
// owner/epoch/expiry, acquired by fsync'd exclusive create, renewed by
// atomic replace, and stolen (epoch bump) after one TTL of silence — and
// append a CRC-framed record to registry.wal *before* the entry file is
// written. Readers replay the log (Refresh) before lookups; a record
// whose entry file has not caught up with the recorded post-state
// (version for puts, pin for promotions) is retried on later refreshes,
// so a reader never serves a torn view and a promotion is never lost. A
// torn final log frame — a writer crashed mid-append — is skipped by
// readers until complete, and reclaimed (truncated) by the next
// lease-holding appender so the dead bytes can never poison later
// appends. The Store interface abstracts over *Registry (one process)
// and *Shared (a fleet) for the serving layer.
package registry
