//! Canary for the loaders: an FNV-1a digest of every table's records and
//! secondary-index pairs right after `tatp::load` and `tpcc::load`.
//!
//! The loaders refill one body buffer per table and `Engine::load` builds
//! every record image in one engine buffer, so a field one row writes and
//! the next row forgets to overwrite would leak into that next row. Such a
//! leak changes a record's bytes and so this digest. The digests were
//! recorded from the loaders that allocated a fresh buffer per row.
//!
//! A pool far smaller than the load also runs each loader through
//! eviction, so tail pages are written back and faulted in again mid-load;
//! the digest must not depend on the pool size.

use bionic_core::config::EngineConfig;
use bionic_core::engine::Engine;
use bionic_workloads::tatp::{self, TatpConfig};
use bionic_workloads::tpcc::{self, TpccConfig};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Every table in id order: its name, each `(key, record)` in key order,
/// and each `(secondary key, primary key)` pair.
fn digest(engine: &mut Engine) -> u64 {
    let mut h = FNV_OFFSET;
    for table in 0..engine.table_count() as u32 {
        h = fnv(h, engine.table_name(table).as_bytes());
        for (key, rec) in engine.scan_table(table) {
            h = fnv(h, &key.to_le_bytes());
            h = fnv(h, &(rec.len() as u64).to_le_bytes());
            h = fnv(h, &rec);
        }
        for (skey, key) in engine.scan_secondary(table) {
            h = fnv(h, &skey.to_le_bytes());
            h = fnv(h, &key.to_le_bytes());
        }
    }
    h
}

/// The default pool, and one of 16 frames that the load cycles through.
fn configs() -> [EngineConfig; 2] {
    let mut tiny = EngineConfig::software();
    tiny.pool_pages = 16;
    [EngineConfig::bionic(), tiny]
}

#[test]
fn tatp_load_digest_is_pinned() {
    let wl = TatpConfig {
        subscribers: 2_000,
        seed: 42,
    };
    for cfg in configs() {
        let mut engine = Engine::new(cfg);
        tatp::load(&mut engine, &wl);
        assert_eq!(
            digest(&mut engine),
            0x4215_b735_5e42_5c99,
            "tatp load digest"
        );
    }
}

#[test]
fn tpcc_load_digest_is_pinned() {
    for cfg in configs() {
        let mut engine = Engine::new(cfg);
        tpcc::load(&mut engine, &TpccConfig::small());
        assert_eq!(
            digest(&mut engine),
            0x9373_8f6c_102d_f8ab,
            "tpcc load digest"
        );
    }
}
