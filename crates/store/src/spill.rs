//! Spill files for the memory-bounded Phase II → III merge.
//!
//! Each partition's cell graph is serialized to its own spill file; the
//! tournament merge then streams pairs of spill files and writes a
//! merged spill, so no round ever holds more than one merge frontier in
//! memory. A [`SpillDir`] owns a private directory (removed on drop)
//! and counts bytes in both directions for `RunStats`.
//!
//! Spill files are scratch, not interchange: the format (length-prefixed
//! little-endian sections) is private to this process and carries no
//! magic or checksums — the store file is the durable artifact. Readers
//! still never trust a length prefix: [`SpillReader::read_count`] bounds
//! each by the bytes left in the file, so truncation or a corrupt count
//! is a typed error.

use crate::StoreError;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Process-wide counter so concurrent [`SpillDir`]s (e.g. parallel
/// tests) never collide on a directory name. Paired with the pid so
/// reruns over a shared temp root stay distinct without consulting the
/// clock.
static NEXT_SPILL_DIR: Mutex<u64> = Mutex::new(0);

/// Byte accounting for one spill directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpillStats {
    /// Spill files written (including merged rounds).
    pub files: u64,
    /// Total bytes written across all spill files.
    pub bytes_written: u64,
    /// Total bytes read back across all spill files.
    pub bytes_read: u64,
}

/// A named, sized spill file inside a [`SpillDir`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpillHandle {
    path: PathBuf,
    bytes: u64,
}

impl SpillHandle {
    /// The spill file's size in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// A private scratch directory of spill files, removed on drop.
#[derive(Debug)]
pub struct SpillDir {
    dir: PathBuf,
    state: Mutex<SpillState>,
}

#[derive(Debug)]
struct SpillState {
    next_file: u64,
    stats: SpillStats,
}

impl SpillDir {
    /// Creates a fresh spill directory under `base` (the system temp
    /// directory when `None`).
    pub fn create(base: Option<&Path>) -> Result<SpillDir, StoreError> {
        let seq = {
            let mut next = NEXT_SPILL_DIR.lock().unwrap_or_else(|p| p.into_inner());
            let seq = *next;
            *next += 1;
            seq
        };
        let root = match base {
            Some(p) => p.to_path_buf(),
            None => std::env::temp_dir(),
        };
        let dir = root.join(format!("rpdbscan-spill-{}-{seq}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(SpillDir {
            dir,
            state: Mutex::new(SpillState {
                next_file: 0,
                stats: SpillStats::default(),
            }),
        })
    }

    /// Byte counters (snapshot).
    pub fn stats(&self) -> SpillStats {
        self.state.lock().unwrap_or_else(|p| p.into_inner()).stats
    }

    /// Opens a new spill file for writing.
    pub fn writer(&self) -> Result<SpillWriter<'_>, StoreError> {
        let seq = {
            let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
            let seq = state.next_file;
            state.next_file += 1;
            state.stats.files += 1;
            seq
        };
        let path = self.dir.join(format!("spill-{seq}.bin"));
        let file = File::create(&path)?;
        Ok(SpillWriter {
            dir: self,
            path,
            w: BufWriter::new(file),
            bytes: 0,
        })
    }

    /// Opens a finished spill file for streaming reads; the handle's
    /// full size is charged to `bytes_read` up front (merges consume
    /// their inputs whole).
    pub fn open(&self, handle: &SpillHandle) -> Result<SpillReader, StoreError> {
        let file = File::open(&handle.path)?;
        let left = file.metadata()?.len();
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        state.stats.bytes_read += handle.bytes;
        Ok(SpillReader {
            r: BufReader::new(file),
            left,
        })
    }

    /// Deletes a consumed spill file (merge inputs after each round).
    pub fn remove(&self, handle: &SpillHandle) -> Result<(), StoreError> {
        std::fs::remove_file(&handle.path)?;
        Ok(())
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        // Best effort: spill files are scratch; leaking on IO error is
        // acceptable, panicking in drop is not.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Buffered writer over one spill file; call [`Self::finish`] to flush
/// and obtain the handle.
#[derive(Debug)]
pub struct SpillWriter<'a> {
    dir: &'a SpillDir,
    path: PathBuf,
    w: BufWriter<File>,
    bytes: u64,
}

impl SpillWriter<'_> {
    /// Writes one byte.
    pub fn write_u8(&mut self, v: u8) -> Result<(), StoreError> {
        self.w.write_all(&[v])?;
        self.bytes += 1;
        Ok(())
    }

    /// Writes a little-endian `u32`.
    pub fn write_u32(&mut self, v: u32) -> Result<(), StoreError> {
        self.w.write_all(&v.to_le_bytes())?;
        self.bytes += 4;
        Ok(())
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, v: u64) -> Result<(), StoreError> {
        self.w.write_all(&v.to_le_bytes())?;
        self.bytes += 8;
        Ok(())
    }

    /// Flushes and returns the finished file's handle.
    pub fn finish(self) -> Result<SpillHandle, StoreError> {
        let mut w = self.w;
        w.flush()?;
        drop(w);
        {
            let mut state = self.dir.state.lock().unwrap_or_else(|p| p.into_inner());
            state.stats.bytes_written += self.bytes;
        }
        Ok(SpillHandle {
            path: self.path,
            bytes: self.bytes,
        })
    }
}

/// Buffered reader over one spill file. Premature EOF surfaces as
/// [`StoreError::Truncated`].
#[derive(Debug)]
pub struct SpillReader {
    r: BufReader<File>,
    /// Bytes of the file not read yet.
    left: u64,
}

impl SpillReader {
    /// Reads a little-endian `u64` item count and checks that `count`
    /// items of `item_bytes` each fit in the rest of the file, so a
    /// corrupt count fails typed instead of sizing an allocation or a
    /// read loop.
    pub fn read_count(&mut self, what: &'static str, item_bytes: u64) -> Result<u64, StoreError> {
        let count = self.read_u64()?;
        let need = count.saturating_mul(item_bytes);
        if need > self.left {
            return Err(StoreError::Truncated {
                what,
                expected: need,
                got: self.left,
            });
        }
        Ok(count)
    }

    /// Reads one byte.
    pub fn read_u8(&mut self) -> Result<u8, StoreError> {
        let mut b = [0u8; 1];
        self.read_exact(&mut b)?;
        Ok(b[0])
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&mut self) -> Result<u32, StoreError> {
        let mut b = [0u8; 4];
        self.read_exact(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&mut self) -> Result<u64, StoreError> {
        let mut b = [0u8; 8];
        self.read_exact(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    fn read_exact(&mut self, buf: &mut [u8]) -> Result<(), StoreError> {
        let want = buf.len() as u64;
        self.r.read_exact(buf).map_err(|e| match e.kind() {
            std::io::ErrorKind::UnexpectedEof => StoreError::Truncated {
                what: "spill file",
                expected: want,
                got: self.left.min(want),
            },
            _ => StoreError::Io(e.to_string()),
        })?;
        self.left = self.left.saturating_sub(want);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spill_round_trip_and_accounting() {
        let spill = SpillDir::create(None).unwrap();
        let mut w = spill.writer().unwrap();
        w.write_u64(3).unwrap();
        w.write_u32(7).unwrap();
        w.write_u8(2).unwrap();
        let handle = w.finish().unwrap();
        assert_eq!(handle.bytes(), 13);

        let mut r = spill.open(&handle).unwrap();
        assert_eq!(r.read_u64().unwrap(), 3);
        assert_eq!(r.read_u32().unwrap(), 7);
        assert_eq!(r.read_u8().unwrap(), 2);
        assert!(matches!(
            r.read_u8(),
            Err(StoreError::Truncated {
                what: "spill file",
                ..
            })
        ));

        let stats = spill.stats();
        assert_eq!(stats.files, 1);
        assert_eq!(stats.bytes_written, 13);
        assert_eq!(stats.bytes_read, 13);

        spill.remove(&handle).unwrap();
        assert!(spill.open(&handle).is_err());
    }

    #[test]
    fn spill_dirs_are_distinct_and_cleaned() {
        let a = SpillDir::create(None).unwrap();
        let b = SpillDir::create(None).unwrap();
        assert_ne!(a.dir, b.dir);
        let dir = a.dir.clone();
        assert!(dir.is_dir());
        drop(a);
        assert!(!dir.exists());
        drop(b);
    }
}
