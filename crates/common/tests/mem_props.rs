//! Property tests for the page-granular `Memory` against a byte-wise
//! model: every access, including page straddles and accesses that wrap
//! at `u64::MAX`, must read and write exactly what one `HashMap` entry
//! per byte would, and reads must never make a page resident.

use ch_common::mem::Memory;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

const PAGE: u64 = 4096;

/// The reference: one entry per written byte, plus the set of pages a
/// write has touched (what `resident_pages` must count).
#[derive(Default)]
struct Model {
    bytes: HashMap<u64, u8>,
    pages: HashSet<u64>,
}

impl Model {
    fn write(&mut self, addr: u64, bytes: &[u8]) {
        for (i, &b) in bytes.iter().enumerate() {
            let a = addr.wrapping_add(i as u64);
            self.bytes.insert(a, b);
            self.pages.insert(a / PAGE);
        }
    }

    fn read(&self, addr: u64, len: usize) -> Vec<u8> {
        (0..len as u64)
            .map(|i| self.bytes.get(&addr.wrapping_add(i)).copied().unwrap_or(0))
            .collect()
    }
}

fn le(value: u64, size: u8) -> Vec<u8> {
    value.to_le_bytes()[..usize::from(size)].to_vec()
}

fn from_le(bytes: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    buf[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(buf)
}

fn arb_size() -> Gen<u8> {
    prop_oneof![Just(1u8), Just(2u8), Just(4u8), Just(8u8)]
}

/// Addresses weighted towards the interesting places: within 8 bytes of
/// either side of a page end, the last bytes before `u64::MAX` (so an
/// access wraps to address 0), the first bytes of the address space, and
/// anywhere at all.
fn arb_addr() -> Gen<u64> {
    let page_end = (0u64..6, 0u64..16).prop_map(|(page, d)| (page + 1) * PAGE - 8 + d);
    let far_page_end = (any::<u64>(), 0u64..16)
        .prop_map(|(a, d)| (a | (PAGE - 1)).wrapping_sub(7).wrapping_add(d));
    prop_oneof![
        4 => page_end,
        2 => far_page_end,
        2 => (0u64..16).prop_map(|d| u64::MAX - d),
        1 => 0u64..16,
        1 => any::<u64>(),
    ]
}

#[derive(Debug, Clone)]
enum Op {
    Write { addr: u64, size: u8, value: u64 },
    Read { addr: u64, size: u8 },
    WriteBytes { addr: u64, bytes: Vec<u8> },
    ReadBytes { addr: u64, len: usize },
}

fn arb_op() -> Gen<Op> {
    prop_oneof![
        4 => (arb_addr(), arb_size(), any::<u64>())
            .prop_map(|(addr, size, value)| Op::Write { addr, size, value }),
        4 => (arb_addr(), arb_size()).prop_map(|(addr, size)| Op::Read { addr, size }),
        1 => (arb_addr(), proptest::collection::vec(any::<u8>(), 0..40))
            .prop_map(|(addr, bytes)| Op::WriteBytes { addr, bytes }),
        1 => (arb_addr(), 0usize..40).prop_map(|(addr, len)| Op::ReadBytes { addr, len }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn accesses_match_a_bytewise_model(ops in proptest::collection::vec(arb_op(), 1..48)) {
        let mut mem = Memory::new();
        let mut model = Model::default();
        for op in &ops {
            let before = mem.resident_pages();
            match *op {
                Op::Write { addr, size, value } => {
                    mem.write(addr, size, value);
                    model.write(addr, &le(value, size));
                }
                Op::Read { addr, size } => {
                    let want = from_le(&model.read(addr, usize::from(size)));
                    prop_assert_eq!(mem.read(addr, size), want, "{:?}", op);
                    prop_assert_eq!(mem.resident_pages(), before, "read allocated: {:?}", op);
                }
                Op::WriteBytes { addr, ref bytes } => {
                    mem.write_bytes(addr, bytes);
                    model.write(addr, bytes);
                }
                Op::ReadBytes { addr, len } => {
                    prop_assert_eq!(mem.read_bytes(addr, len), model.read(addr, len), "{:?}", op);
                    prop_assert_eq!(mem.resident_pages(), before, "read allocated: {:?}", op);
                }
            }
            prop_assert_eq!(mem.resident_pages(), model.pages.len(), "after {:?}", op);
        }
        // Every byte the model knows, read back one at a time.
        for (&a, &b) in &model.bytes {
            prop_assert_eq!(mem.read_u8(a), b, "byte {:#x}", a);
        }
    }

    #[test]
    fn untouched_reads_are_zero_and_allocate_nothing(
        addr in arb_addr(),
        size in arb_size(),
        other in arb_addr(),
    ) {
        let mut mem = Memory::new();
        prop_assert_eq!(mem.read(addr, size), 0);
        prop_assert_eq!(mem.read_bytes(addr, 64), vec![0u8; 64]);
        prop_assert_eq!(mem.resident_pages(), 0);
        // With some other page resident, reads still allocate nothing.
        mem.write_u8(other, 0xa5);
        let resident = mem.resident_pages();
        let _ = mem.read(addr, size);
        let _ = mem.read_u8(addr);
        let _ = mem.read_bytes(addr, 64);
        prop_assert_eq!(mem.resident_pages(), resident);
    }

    #[test]
    fn write_bytes_across_pages_equals_bytewise_writes(
        addr in arb_addr(),
        bytes in proptest::collection::vec(any::<u8>(), 0..(3 * PAGE as usize)),
    ) {
        let mut chunked = Memory::new();
        chunked.write_bytes(addr, &bytes);
        let mut bytewise = Memory::new();
        for (i, &b) in bytes.iter().enumerate() {
            bytewise.write_u8(addr.wrapping_add(i as u64), b);
        }
        prop_assert_eq!(chunked.resident_pages(), bytewise.resident_pages());
        prop_assert_eq!(chunked.read_bytes(addr, bytes.len()), bytes.clone());
        for i in (0..bytes.len()).step_by(7) {
            let a = addr.wrapping_add(i as u64);
            prop_assert_eq!(chunked.read(a, 8), bytewise.read(a, 8), "at {:#x}", a);
        }
    }
}

#[test]
fn bad_access_sizes_still_panic() {
    for size in [0u8, 3, 5, 6, 7, 9, 16, 255] {
        for write in [false, true] {
            let err = std::panic::catch_unwind(|| {
                let mut mem = Memory::new();
                if write {
                    mem.write(0x1000, size, 1);
                } else {
                    let _ = mem.read(0x1000, size);
                }
            })
            .expect_err("an unsupported access size must panic");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert_eq!(msg, format!("bad access size {size}"), "write={write}");
        }
    }
}
