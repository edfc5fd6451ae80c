// Package tier is the cold store below PM of the FlexLog store (§5.2): a
// named-blob adapter over the simulated SSD. The store's lifecycle
// machinery (segment spilling, checkpointing, trim-driven GC) talks to the
// device through it instead of through raw files.
//
// The contract:
//
//   - Put replaces the named blob wholesale. The bytes are volatile until
//     the next successful Sync (a crash before Sync may lose or truncate
//     them — exactly the simulated device's semantics).
//   - Get reads len(buf) bytes at off. Reading a missing blob or past its
//     end is an error; blobs are immutable between Put calls, so readers
//     never see torn data.
//   - Delete drops the blob (idempotent: deleting a missing blob is ok).
//   - Sync is the durability barrier for every Put since the last Sync.
//   - Crash/Recover simulate a power failure: unsynced writes are lost,
//     synced blobs survive.
//
// Blob names are flat strings chosen by the caller (the store uses
// "seg-<id>" for spilled segments and "ckpt-<seq>" for checkpoints).
package tier

// Stats counts tier activity. Counters are cumulative; Blobs and Bytes
// are the current occupancy.
type Stats struct {
	Blobs    int    // blobs currently stored
	Bytes    uint64 // payload bytes currently stored
	Puts     uint64
	Gets     uint64
	Deletes  uint64
	Syncs    uint64
	BytesIn  uint64 // payload bytes written by Put
	BytesOut uint64 // payload bytes returned by Get
}
