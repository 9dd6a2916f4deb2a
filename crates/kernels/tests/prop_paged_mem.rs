//! Property tests: the page-granular emulator memory behaves exactly like
//! a byte-addressed map read and written one byte at a time.

use proptest::prelude::*;
use racesim_kernels::emu::PagedMem;
use std::collections::{BTreeMap, BTreeSet};

const PAGE: u64 = 4096;

/// The byte-wise reference: absent bytes read as zero; a page is mapped
/// once any byte in it has been written.
#[derive(Default)]
struct Reference {
    bytes: BTreeMap<u64, u8>,
    pages: BTreeSet<u64>,
}

impl Reference {
    fn read_le(&self, addr: u64, n: u64) -> u64 {
        (0..n).fold(0, |v, i| {
            let b = self.bytes.get(&addr.wrapping_add(i)).copied().unwrap_or(0);
            v | u64::from(b) << (8 * i)
        })
    }

    fn write_le(&mut self, addr: u64, n: u64, v: u64) {
        for i in 0..n {
            let a = addr.wrapping_add(i);
            self.bytes.insert(a, (v >> (8 * i)) as u8);
            self.pages.insert(a / PAGE);
        }
    }
}

/// Addresses clustered around a few page boundaries (including the last
/// page of the address space, whose straddling accesses wrap to page 0),
/// so reads and writes overlap, straddle and miss.
fn arb_addr() -> impl Strategy<Value = u64> {
    let page = prop_oneof![0u64..3, Just(u64::MAX / PAGE)];
    let offset = prop_oneof![0u64..16, PAGE - 16..PAGE, 0..PAGE];
    (page, offset).prop_map(|(p, o)| p.wrapping_mul(PAGE).wrapping_add(o))
}

fn arb_width() -> impl Strategy<Value = u64> {
    prop_oneof![Just(1u64), Just(2), Just(4), Just(8)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn word_accesses_equal_bytewise_accesses(
        ops in proptest::collection::vec(
            (any::<bool>(), arb_addr(), arb_width(), any::<u64>()),
            1..64,
        ),
    ) {
        let mut mem = PagedMem::new();
        let mut reference = Reference::default();
        for (write, addr, n, v) in ops {
            if write {
                mem.write_le(addr, n, v);
                reference.write_le(addr, n, v);
            } else {
                let mapped = mem.mapped_pages();
                prop_assert_eq!(mem.read_le(addr, n), reference.read_le(addr, n));
                prop_assert_eq!(mem.mapped_pages(), mapped, "a read mapped a page");
            }
            prop_assert_eq!(mem.mapped_pages(), reference.pages.len());
        }
        for (&addr, &b) in &reference.bytes {
            prop_assert_eq!(mem.read_le(addr, 1), u64::from(b));
        }
    }

    #[test]
    fn image_loads_equal_bytewise_writes(
        addr in arb_addr(),
        bytes in proptest::collection::vec(any::<u8>(), 0..3 * PAGE as usize),
    ) {
        let mut mem = PagedMem::new();
        mem.write_bytes(addr, &bytes);
        let mut pages = BTreeSet::new();
        for (i, &b) in bytes.iter().enumerate() {
            let a = addr.wrapping_add(i as u64);
            prop_assert_eq!(mem.read_le(a, 1), u64::from(b));
            pages.insert(a / PAGE);
        }
        prop_assert_eq!(mem.mapped_pages(), pages.len());
        // Nothing outside the image was written.
        prop_assert_eq!(mem.read_le(addr.wrapping_sub(8), 8), 0);
        prop_assert_eq!(mem.read_le(addr.wrapping_add(bytes.len() as u64), 8), 0);
    }
}
