// Package vfs is the filesystem interposition seam under every durable
// artifact in the repo: registry entries, the change-log WAL, lease
// files, the fleet job journal and training checkpoints all reach the
// disk through an FS value instead of calling the os package directly.
// Production code runs on OS, a zero-overhead passthrough; the
// crash-consistency harness (internal/crashtest) runs the same code on
// *FaultFS, a deterministic in-memory filesystem that records every
// mutating operation, injects EIO/ENOSPC/short writes, and materializes
// the exact state a power cut would leave behind at any op boundary.
//
// # Durability model
//
// FaultFS models strict POSIX/ext4 semantics, which is also the contract
// callers must code against:
//
//   - File bytes are volatile until File.Sync; a crash drops un-synced
//     writes entirely (CrashImage) or tears them at sector granularity
//     in operation order (CrashImageTorn).
//   - Directory entries — creates, renames, removes, links — are
//     volatile until the directory is fsynced (SyncDir). A rename within
//     one directory is atomic: a crash applies it fully or not at all.
//   - A new directory is itself an entry in its parent: bare MkdirAll
//     leaves the whole subtree able to vanish on a crash, taking every
//     carefully-fsynced file inside with it. MkdirAllDurable fsyncs the
//     parents of everything it creates.
//
// # Crash exploration
//
// Every mutating operation gets an index in the op log; CrashBefore(i)
// makes op i and everything after it fail with ErrCrashed, simulating
// the process losing power at that boundary. CrashImage() then builds
// the strictly-fsynced surviving disk; CrashImageTorn(seed) one seeded
// ext4-like variant. Both are fresh fault-free FaultFS values, so the
// normal recovery paths run against them unmodified.
//
// # Error injection
//
// AddFault arms rules matched against (kind, path) of mutating ops:
// ENOSPC/EIO on writes and syncs, with Partial > 0 modelling the short
// write a full disk produces mid-frame. Injected errors are the real
// syscall values, so errors.Is / Retryable treat them exactly like
// production faults. Write paths that return a Retryable error guarantee
// they left no partial state behind.
//
// WriteAtomic (temp file, fsync, rename, directory fsync) is the one
// durable whole-file write: registry entries, lease records, fleet
// journal records, checkpoints and saved models all land through it.
//
// The package has no dependencies inside the repo, so every layer — the
// registry, the fleet journal, checkpoints, the CLIs — can take an FS
// without import cycles.
package vfs
