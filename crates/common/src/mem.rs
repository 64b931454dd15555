//! Sparse byte-addressed memory for the functional emulators.
//!
//! Pages are allocated lazily, so a 64-bit address space costs only what is
//! touched. Reads of untouched memory return zero, which matches what the
//! emulated programs (whose data sections are zero-initialised) expect.
//!
//! Every interpreted load and store lands here, so an access that fits in
//! one page costs one page lookup and a slice copy. Accesses that straddle
//! a page boundary (including those that wrap at `u64::MAX`) go byte by
//! byte.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;

const PAGE_BITS: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_BITS;

/// Hashes a page number with one multiply (Fibonacci hashing). Keys are
/// page numbers chosen by the emulated program's layout, not by an
/// adversary, so SipHash's flooding resistance buys nothing here.
#[derive(Debug, Clone, Copy, Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Only `u64` keys are hashed (see `write_u64`); this keeps the
        // trait total for any other key type.
        for &b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type PageMap = HashMap<u64, Box<[u8; PAGE_SIZE]>, BuildHasherDefault<PageHasher>>;

/// Offset of `addr` inside its page.
fn page_offset(addr: u64) -> usize {
    (addr as usize) & (PAGE_SIZE - 1)
}

/// Splits the `len` bytes starting at `addr` into runs that each stay in
/// one page: `(first address, offset in page, range in the byte buffer)`.
/// Addresses wrap at `u64::MAX`, as byte-wise addressing does.
fn page_runs(addr: u64, len: usize) -> impl Iterator<Item = (u64, usize, Range<usize>)> {
    let mut done = 0;
    std::iter::from_fn(move || {
        (done < len).then(|| {
            let at = addr.wrapping_add(done as u64);
            let off = page_offset(at);
            let n = (len - done).min(PAGE_SIZE - off);
            done += n;
            (at, off, done - n..done)
        })
    })
}

/// A sparse little-endian memory.
///
/// # Examples
///
/// ```
/// use ch_common::mem::Memory;
///
/// let mut m = Memory::new();
/// m.write_u64(0x1000, 0xdead_beef);
/// assert_eq!(m.read_u64(0x1000), 0xdead_beef);
/// assert_eq!(m.read_u64(0x8000), 0); // untouched memory reads as zero
/// ```
#[derive(Debug, Clone, Default)]
pub struct Memory {
    pages: PageMap,
}

impl Memory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Memory::default()
    }

    /// Number of 4 KiB pages that have been touched.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// The page holding `addr`, if it is resident.
    fn page(&self, addr: u64) -> Option<&[u8; PAGE_SIZE]> {
        self.pages.get(&(addr >> PAGE_BITS)).map(|p| &**p)
    }

    /// The page holding `addr`, made resident (zeroed) if it was not.
    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_SIZE] {
        self.pages
            .entry(addr >> PAGE_BITS)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        self.page(addr).map_or(0, |p| p[page_offset(addr)])
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        self.page_mut(addr)[page_offset(addr)] = value;
    }

    /// Reads `size` bytes (1, 2, 4, or 8) little-endian, zero-extended.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not 1, 2, 4, or 8.
    pub fn read(&self, addr: u64, size: u8) -> u64 {
        assert!(matches!(size, 1 | 2 | 4 | 8), "bad access size {size}");
        let (off, n) = (page_offset(addr), usize::from(size));
        if off + n <= PAGE_SIZE {
            let mut buf = [0u8; 8];
            if let Some(p) = self.page(addr) {
                buf[..n].copy_from_slice(&p[off..off + n]);
            }
            return u64::from_le_bytes(buf);
        }
        let mut v = 0u64;
        for i in 0..u64::from(size) {
            v |= (self.read_u8(addr.wrapping_add(i)) as u64) << (8 * i);
        }
        v
    }

    /// Writes the low `size` bytes of `value` little-endian.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not 1, 2, 4, or 8.
    pub fn write(&mut self, addr: u64, size: u8, value: u64) {
        assert!(matches!(size, 1 | 2 | 4 | 8), "bad access size {size}");
        let (off, n) = (page_offset(addr), usize::from(size));
        if off + n <= PAGE_SIZE {
            self.page_mut(addr)[off..off + n].copy_from_slice(&value.to_le_bytes()[..n]);
            return;
        }
        for i in 0..u64::from(size) {
            self.write_u8(addr.wrapping_add(i), (value >> (8 * i)) as u8);
        }
    }

    /// Reads a little-endian u64.
    pub fn read_u64(&self, addr: u64) -> u64 {
        self.read(addr, 8)
    }

    /// Writes a little-endian u64.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write(addr, 8, value);
    }

    /// Copies a byte slice into memory starting at `addr`, one page
    /// chunk at a time.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        for (at, off, run) in page_runs(addr, bytes.len()) {
            self.page_mut(at)[off..off + run.len()].copy_from_slice(&bytes[run]);
        }
    }

    /// Reads `len` bytes starting at `addr`.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        for (at, off, run) in page_runs(addr, len) {
            if let Some(p) = self.page(at) {
                out[run.clone()].copy_from_slice(&p[off..off + run.len()]);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_sizes() {
        let mut m = Memory::new();
        for (size, val) in [
            (1u8, 0xab),
            (2, 0xabcd),
            (4, 0xabcd_ef01),
            (8, 0x0123_4567_89ab_cdef),
        ] {
            m.write(0x100, size, val);
            let mask = if size == 8 {
                u64::MAX
            } else {
                (1 << (8 * size)) - 1
            };
            assert_eq!(m.read(0x100, size), val & mask);
        }
    }

    #[test]
    fn cross_page_access() {
        let mut m = Memory::new();
        let addr = (1 << PAGE_BITS) - 4; // straddles a page boundary
        m.write_u64(addr, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(addr), 0x1122_3344_5566_7788);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn untouched_reads_zero() {
        let m = Memory::new();
        assert_eq!(m.read(0xdead_0000, 8), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn bytes_roundtrip() {
        let mut m = Memory::new();
        m.write_bytes(0x42, b"clockhands");
        assert_eq!(m.read_bytes(0x42, 10), b"clockhands");
    }

    #[test]
    #[should_panic(expected = "bad access size")]
    fn bad_size_panics() {
        let m = Memory::new();
        let _ = m.read(0, 3);
    }
}
