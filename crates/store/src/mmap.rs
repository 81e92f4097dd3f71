//! Read-only memory mapping of artifact files.
//!
//! [`map_file`] returns the file's contents as [`Bytes`] backed by an
//! `mmap(2)` region (page-on-demand, shared page cache) instead of a heap
//! read — so an artifact larger than RAM can be opened and served: only
//! the pages a query actually touches are resident, and the kernel evicts
//! cold ones under pressure. The mapping is page-aligned, which satisfies
//! every alignment the store codecs need for zero-copy adoption, and it is
//! unmapped when the last `Bytes` clone referencing it drops (the owner
//! hook added to the vendored `bytes`).
//!
//! On targets without a raw `mmap` binding — and under Miri, which
//! cannot model foreign `mmap` calls — the function degrades to
//! `std::fs::read`: same `Bytes` out, just heap-resident. That keeps
//! this module's tests runnable in the Miri CI job.
//!
//! The region is mapped `MAP_PRIVATE` + `PROT_READ`. Truncating or
//! rewriting the file while it is mapped is undefined behavior at the OS
//! level (SIGBUS on a truncated page); artifacts are immutable by
//! convention — replace by rename, never in place.

use bytes::Bytes;
use std::fs::File;
use std::io;
use std::path::Path;

#[cfg(all(unix, not(miri), any(target_os = "linux", target_os = "android", target_os = "macos")))]
mod sys {
    use super::*;
    use std::os::raw::{c_int, c_void};
    use std::os::unix::io::AsRawFd;

    // Raw libc bindings: std already links the platform C library, so the
    // symbols resolve without a `libc` crate dependency (the build
    // environment has no registry access).
    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }

    const PROT_READ: c_int = 1;
    const MAP_PRIVATE: c_int = 2;
    // Same numeric values on Linux, Android and macOS.
    const MADV_RANDOM: c_int = 1;
    const MADV_WILLNEED: c_int = 3;

    /// Best-effort `madvise(2)` over the pages spanning `data`. The range
    /// is widened to 4 KiB page boundaries (madvise requires a page-
    /// aligned start); failures are ignored — advice is a hint, and a
    /// slice that is not mmap-backed (heap `Bytes`) simply gets `EINVAL`
    /// or advises unrelated heap pages harmlessly.
    pub fn advise_range(data: &[u8], advice: super::Advice) {
        if data.is_empty() {
            return;
        }
        const PAGE: usize = 4096;
        let start = data.as_ptr() as usize & !(PAGE - 1);
        let end = data.as_ptr() as usize + data.len();
        let advice = match advice {
            super::Advice::WillNeed => MADV_WILLNEED,
            super::Advice::Random => MADV_RANDOM,
        };
        // SAFETY: the page range covers `data`, which is live memory for
        // the duration of the call; madvise only adjusts paging behavior
        // (PROT/visibility are untouched), and any error is discarded.
        unsafe { madvise(start as *mut c_void, end - start, advice) };
    }

    /// An owned read-only mapping; unmapped on drop.
    pub struct MmapRegion {
        ptr: *const u8,
        len: usize,
    }

    // SAFETY: the region is immutable (PROT_READ, private) for its whole
    // lifetime, so shared references from any thread are fine.
    unsafe impl Send for MmapRegion {}
    // SAFETY: same argument as Send — immutable for its whole lifetime.
    unsafe impl Sync for MmapRegion {}

    impl AsRef<[u8]> for MmapRegion {
        fn as_ref(&self) -> &[u8] {
            // SAFETY: ptr/len describe a live PROT_READ mapping created in
            // `map`, valid until `drop` unmaps it.
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }
    }

    impl Drop for MmapRegion {
        fn drop(&mut self) {
            // SAFETY: exactly the region mmap returned; called once.
            unsafe { munmap(self.ptr as *mut c_void, self.len) };
        }
    }

    pub fn map(file: &File, len: usize) -> io::Result<MmapRegion> {
        // SAFETY: fd is open for reading; len equals the file size checked
        // by the caller; a failed map returns MAP_FAILED, checked below.
        let ptr =
            unsafe { mmap(std::ptr::null_mut(), len, PROT_READ, MAP_PRIVATE, file.as_raw_fd(), 0) };
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        Ok(MmapRegion { ptr: ptr as *const u8, len })
    }
}

/// Paging-pattern hint for [`advise`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Advice {
    /// The range will be read soon — prefetch it (`MADV_WILLNEED`).
    /// Loaders use it on headers and section tables so the first parse
    /// doesn't fault page by page.
    WillNeed,
    /// Accesses will be random — don't read ahead (`MADV_RANDOM`). Scan
    /// structures touched a piece at a time (a candidate sheet's cell
    /// table, picked by ANN hits) use it so sparse queries don't drag
    /// whole neighborhoods in.
    Random,
}

/// Best-effort `madvise(2)` hint over the pages backing `data` — a no-op
/// on targets without the raw syscall layer (and under Miri). Errors are
/// ignored: advice never affects correctness, only paging behavior, and
/// heap-backed `Bytes` (the non-mmap load path) simply don't benefit.
pub fn advise(data: &[u8], advice: Advice) {
    #[cfg(all(
        unix,
        not(miri),
        any(target_os = "linux", target_os = "android", target_os = "macos")
    ))]
    sys::advise_range(data, advice);
    #[cfg(not(all(
        unix,
        not(miri),
        any(target_os = "linux", target_os = "android", target_os = "macos")
    )))]
    let _ = (data, advice);
}

/// Map `path` read-only and return its contents as zero-copy [`Bytes`].
/// Empty files yield empty `Bytes` without a mapping (zero-length `mmap`
/// is an error on POSIX).
pub fn map_file(path: &Path) -> io::Result<Bytes> {
    let file = File::open(path)?;
    let len = file.metadata()?.len();
    if len == 0 {
        return Ok(Bytes::new());
    }
    let len = usize::try_from(len)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file exceeds address space"))?;
    map_file_impl(&file, len, path)
}

#[cfg(all(unix, not(miri), any(target_os = "linux", target_os = "android", target_os = "macos")))]
fn map_file_impl(file: &File, len: usize, _path: &Path) -> io::Result<Bytes> {
    Ok(Bytes::from_owner(sys::map(file, len)?))
}

#[cfg(not(all(
    unix,
    not(miri),
    any(target_os = "linux", target_os = "android", target_os = "macos")
)))]
fn map_file_impl(_file: &File, _len: usize, path: &Path) -> io::Result<Bytes> {
    Ok(Bytes::from(std::fs::read(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str, contents: &[u8]) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("af_store_mmap_{}_{name}", std::process::id()));
        std::fs::write(&p, contents).unwrap();
        p
    }

    #[test]
    fn maps_file_contents() {
        let payload: Vec<u8> = (0..10_000u32).flat_map(|i| i.to_le_bytes()).collect();
        let p = tmp("payload", &payload);
        let b = map_file(&p).expect("map");
        assert_eq!(&*b, &payload[..]);
        // Slices keep the mapping alive after the original drops.
        let tail = b.slice(payload.len() - 8..);
        drop(b);
        assert_eq!(&*tail, &payload[payload.len() - 8..]);
        drop(tail);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn mapping_is_page_aligned() {
        let p = tmp("aligned", &[1u8; 64]);
        let b = map_file(&p).expect("map");
        assert!(
            (b.as_ptr() as usize).is_multiple_of(4096) || !cfg!(target_os = "linux") || cfg!(miri),
            "mmap base must be page-aligned"
        );
        drop(b);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn advise_is_harmless_on_any_slice() {
        // Mapped pages, heap bytes, interior slices, empty slices: advice
        // must never fail, panic, or alter contents.
        let payload: Vec<u8> = (0..50_000u32).map(|i| i as u8).collect();
        let p = tmp("advised", &payload);
        let b = map_file(&p).expect("map");
        advise(&b, Advice::WillNeed);
        advise(&b[1000..40_000], Advice::Random);
        advise(&[], Advice::WillNeed);
        let heap = vec![7u8; 100];
        advise(&heap, Advice::Random);
        assert_eq!(&*b, &payload[..]);
        drop(b);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn empty_file_and_missing_file() {
        let p = tmp("empty", b"");
        assert!(map_file(&p).expect("map empty").is_empty());
        std::fs::remove_file(&p).unwrap();
        assert!(map_file(Path::new("/no/such/af_store_file")).is_err());
    }
}
