//! Malformed input never panics. `DetRng`-driven op sequences — truncations,
//! bit flips, oversized length fields, spliced garbage — are applied to valid
//! stored cells and to valid HTTP requests; the readers must answer every
//! mutant with an error, or with a well-formed value when the mutation
//! happened to leave the input valid, and never with a panic.

use autorfm::experiments::Scenario;
use autorfm::sim_core::DetRng;
use autorfm::snapshot::store::CellRecord;
use autorfm::snapshot::{open, seal, Reader, Snapshot, Writer, KIND_CELL};
use autorfm::workloads::WorkloadSpec;
use autorfm::{SimConfig, SimResult, System};
use autorfm_campaign::http::read_request;

const CASES: u64 = 3_000;

/// Applies one to four random edits to `bytes`.
fn mutate(rng: &mut DetRng, bytes: &mut Vec<u8>) {
    for _ in 0..=rng.gen_range(4) {
        let at = rng.gen_range(bytes.len() as u64 + 1) as usize;
        match rng.gen_range(5) {
            0 => bytes.truncate(at),
            1 if !bytes.is_empty() => {
                let i = at.min(bytes.len() - 1);
                bytes[i] ^= 1 << rng.gen_range(8);
            }
            2 => {
                // An oversized little-endian length (or count) field.
                let huge = [u64::MAX, 1 << 62, u64::from(u32::MAX) + 1, 1 << 24]
                    [rng.gen_range(4) as usize];
                let end = (at + 8).min(bytes.len());
                bytes.splice(at..end, huge.to_le_bytes());
            }
            3 => {
                let junk: Vec<u8> = (0..=rng.gen_range(16))
                    .map(|_| rng.next_u32() as u8)
                    .collect();
                bytes.splice(at..at, junk);
            }
            _ => {
                // Repeat a slice: duplicated headers, doubled fields.
                let from = rng.gen_range(at as u64 + 1) as usize;
                let copy = bytes[from..at].to_vec();
                bytes.splice(at..at, copy);
            }
        }
    }
}

/// Everything a store reader does with a cell file's bytes.
fn read_cell(file: &[u8]) {
    let Ok(container) = open(file) else { return };
    let Ok(record) = CellRecord::decode(&container.payload) else {
        return;
    };
    if let Ok(bytes) = record.outcome {
        let _ = SimResult::decode(&mut Reader::new(&bytes));
    }
}

#[test]
fn mutated_cells_never_panic_the_store_reader() {
    let spec = WorkloadSpec::by_name("mcf").unwrap();
    let cfg = SimConfig::builder(spec)
        .scenario(Scenario::AutoRfm { th: 4 })
        .cores(1)
        .instructions(2_000)
        .build()
        .unwrap();
    let mut w = Writer::new();
    System::new(cfg).unwrap().run().encode(&mut w);
    let payloads = [
        CellRecord::ok(0x1234, w.into_bytes()).encode(),
        CellRecord::failed(0x5678, "lane panicked").encode(),
    ];
    for case in 0..CASES {
        let mut rng = DetRng::seeded(case);
        let payload = &payloads[(case % 2) as usize];
        // Damage inside an intact container reaches the record decoders...
        let mut inner = payload.clone();
        mutate(&mut rng, &mut inner);
        read_cell(&seal(KIND_CELL, &inner));
        // ...and damage to the container itself reaches `open`.
        let mut outer = seal(KIND_CELL, payload);
        mutate(&mut rng, &mut outer);
        read_cell(&outer);
    }
}

#[test]
fn mutated_requests_never_panic_the_http_parser() {
    let requests: [&[u8]; 3] = [
        b"POST /campaigns HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: 48\r\n\r\n{\"workloads\":[\"mcf\"],\"thresholds\":[4],\"cores\":2}",
        b"GET /cells/00000000deadbeef HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        b"POST /shutdown HTTP/1.1\r\ncontent-length: 0\r\n\r\n",
    ];
    for request in requests {
        let parsed = read_request(request).expect("the unmutated request parses");
        parsed.json().expect("the unmutated body is JSON");
    }
    for case in 0..CASES {
        let mut rng = DetRng::seeded(case);
        let mut bytes = requests[(case % 3) as usize].to_vec();
        mutate(&mut rng, &mut bytes);
        if let Ok(request) = read_request(bytes.as_slice()) {
            let _ = request.json();
        }
    }
}
