//! Property tests: the page-granular emulator memory behaves exactly like
//! a byte-addressed map read and written one byte at a time, also over a
//! data image it reads in place; and every shipped workload records the
//! same trace with its image read in place as with the image copied in.

use proptest::prelude::*;
use racesim_isa::Program;
use racesim_kernels::emu::{Machine, PagedMem};
use racesim_kernels::{microbench_suite, microbench_suite_initialized, probes, spec_suite, Scale};
use racesim_trace::CompactTrace;
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
    /// The reference over a data image: its segments written in order,
    /// with no page mapped yet.
    fn with_image(image: &[(u64, Vec<u8>)]) -> Reference {
        let mut r = Reference::default();
        for (addr, bytes) in image {
            for (i, &b) in bytes.iter().enumerate() {
                r.bytes.insert(addr.wrapping_add(i as u64), b);
            }
        }
        r
    }

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

/// A few data segments around the same page boundaries as the accesses;
/// they may overlap one another, and a segment near the top of the
/// address space is cut where it would wrap.
fn arb_image() -> impl Strategy<Value = Vec<(u64, Vec<u8>)>> {
    let segment = (
        arb_addr(),
        proptest::collection::vec(any::<u8>(), 0..2 * PAGE as usize),
    )
        .prop_map(|(addr, mut bytes)| {
            bytes.truncate(((u64::MAX - addr) as usize).saturating_add(1));
            (addr, bytes)
        });
    proptest::collection::vec(segment, 0..4)
}

/// Replays `ops` on `mem` and on `reference`, checking every read and the
/// mapped-page count after each operation.
fn check_ops(mem: &mut PagedMem<'_>, reference: &mut Reference, ops: Vec<(bool, u64, u64, u64)>) {
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

fn arb_ops() -> impl Strategy<Value = Vec<(bool, u64, u64, u64)>> {
    proptest::collection::vec(
        (any::<bool>(), arb_addr(), arb_width(), any::<u64>()),
        1..64,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn word_accesses_equal_bytewise_accesses(ops in arb_ops()) {
        check_ops(&mut PagedMem::new(), &mut Reference::default(), ops);
    }

    /// Over a data image: unwritten bytes read from the image, reads map
    /// nothing, a write maps (copies) only its own pages, and the image
    /// itself is never mutated.
    #[test]
    fn image_reads_in_place_and_copies_on_write(image in arb_image(), ops in arb_ops()) {
        let pristine = image.clone();
        let mut mem = PagedMem::with_image(&image);
        prop_assert_eq!(mem.mapped_pages(), 0, "loading the image mapped a page");
        check_ops(&mut mem, &mut Reference::with_image(&image), ops);
        drop(mem);
        prop_assert_eq!(image, pristine, "the image was mutated");
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

/// Records `program` with its data image copied into written pages before
/// the first instruction, the way the emulator loaded programs before it
/// read images in place.
fn record_eagerly(program: &Program, limit: u64) -> CompactTrace {
    let bare = Program {
        data: Vec::new(),
        ..program.clone()
    };
    let mut machine = Machine::new(&bare);
    for (addr, bytes) in &program.data {
        machine.mem.write_bytes(*addr, bytes);
    }
    let mut trace = CompactTrace::default();
    machine.run(limit, &mut trace).expect("workload runs");
    trace
}

#[test]
fn shipped_workloads_record_the_same_trace_as_with_an_eager_image() {
    let scale = Scale::divide_by(1024);
    let mut workloads = microbench_suite(scale);
    workloads.extend(microbench_suite_initialized(scale));
    workloads.extend(spec_suite(scale));
    workloads.extend([8, 128, 4096].map(|kb| probes::lat_mem_rd(kb, 64)));
    for w in workloads {
        let in_place = w.compact_trace().expect("workload runs");
        let eager = record_eagerly(&w.program, w.inst_limit);
        assert!(!in_place.is_empty(), "{}", w.name);
        assert!(in_place == eager, "{}: traces differ", w.name);
    }
}
