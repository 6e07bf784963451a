//! Order-preserving tuple → `u64` key encoding.
//!
//! The store underneath ([`txkv`]) is a `u64 → u64` B+-tree whose range
//! scans walk keys in ascending integer order. To make typed tables and
//! secondary indexes scannable, every key is packed so that **integer
//! order equals the intended tuple order** — the `u64` analogue of the
//! byte-wise order-preserving encodings relational engines put in front
//! of ordered KV stores (big-endian integers, zero-padded strings,
//! most-significant field first):
//!
//! ```text
//!   63        54 53      48 47                       6 5        0
//!  ┌────────────┬──────────┬──────────────────────────┬──────────┐
//!  │ place (10) │ table (6)│       payload (42)       │ col (6)  │
//!  └────────────┴──────────┴──────────────────────────┴──────────┘
//! ```
//!
//! * **place** — the partitioning prefix (a TPC-C warehouse, a tenant):
//!   range-partitioning on whole places gives shard-affine routing for
//!   every key of a place. Place 0 is reserved for *replicated* tables
//!   (small read-mostly dimension data loaded into every shard).
//! * **table** — the table or index id (namespacing; assigned by
//!   [`crate::Schema`]).
//! * **payload** — the primary-key tuple, packed most-significant field
//!   first by [`TupleKey::pack`] so tuple lexicographic order survives.
//! * **col** — the column id, least significant so all columns of a row
//!   are contiguous keys: `Table::get` is one tiny range scan and a write
//!   to an existing row is one in-place run (`KvTx::update_run`), each a
//!   single descent of the B+-tree.
//!
//! Strings enter keys through [`pack_str8`]: up to 8 bytes, big-endian,
//! zero-padded — `memcmp` order, exactly what a length-limited VARCHAR
//! prefix index needs (TPC-C's 16-entry last-name dictionary fits with
//! room to spare).

/// Bits for the partitioning prefix (max 1023 places + place 0).
pub const PLACE_BITS: u32 = 10;
/// Bits for the table id (max 64 tables + indexes per schema).
pub const TABLE_BITS: u32 = 6;
/// Bits for the packed primary-key tuple.
pub const PAYLOAD_BITS: u32 = 42;
/// Bits for the column id (max 64 columns per table).
pub const COL_BITS: u32 = 6;

/// Shift of the place field — keys of place `p` occupy
/// `[p << PLACE_SHIFT, (p+1) << PLACE_SHIFT)`.
pub const PLACE_SHIFT: u32 = TABLE_BITS + PAYLOAD_BITS + COL_BITS;

/// First key above the replicated prefix: every key of place 0 (and
/// only place 0) is below this. Feed it to
/// [`txkv::ProcRegistry::with_replicated_below`].
pub const REPLICATED_BOUNDARY: u64 = 1 << PLACE_SHIFT;

/// Pack one key. Debug-asserts each field fits its width.
#[inline]
pub fn encode(place: u64, table: u64, payload: u64, col: u64) -> u64 {
    debug_assert!(place < (1 << PLACE_BITS), "place {place} out of range");
    debug_assert!(table < (1 << TABLE_BITS), "table {table} out of range");
    debug_assert!(payload < (1 << PAYLOAD_BITS), "payload {payload:#x} out of range");
    debug_assert!(col < (1 << COL_BITS), "col {col} out of range");
    (place << PLACE_SHIFT) | (table << (PAYLOAD_BITS + COL_BITS)) | (payload << COL_BITS) | col
}

/// Unpack a key into `(place, table, payload, col)`.
#[inline]
pub fn decode(key: u64) -> (u64, u64, u64, u64) {
    (
        key >> PLACE_SHIFT,
        (key >> (PAYLOAD_BITS + COL_BITS)) & ((1 << TABLE_BITS) - 1),
        (key >> COL_BITS) & ((1 << PAYLOAD_BITS) - 1),
        key & ((1 << COL_BITS) - 1),
    )
}

/// The half-open key range holding every column of every row of one
/// table at one place: the range a full-table scan walks.
#[inline]
pub fn table_range(place: u64, table: u64) -> (u64, u64) {
    let from = encode(place, table, 0, 0);
    (from, from + (1 << (PAYLOAD_BITS + COL_BITS)))
}

/// A primary-key (or index-key) tuple packable into the 42-bit payload
/// such that integer order on the packed value equals lexicographic
/// order on the tuple. Implement via [`crate::def_key!`].
pub trait TupleKey: Copy {
    /// Total payload bits the tuple occupies (≤ [`PAYLOAD_BITS`]).
    const BITS: u32;
    fn pack(&self) -> u64;
    fn unpack(payload: u64) -> Self;
}

/// A single `u64` used directly as payload (small surrogate ids).
impl TupleKey for u64 {
    const BITS: u32 = PAYLOAD_BITS;
    #[inline]
    fn pack(&self) -> u64 {
        *self
    }
    #[inline]
    fn unpack(payload: u64) -> Self {
        payload
    }
}

/// Pack up to 8 bytes of a string big-endian, zero-padded: integer
/// order on the result equals `memcmp` order on the (padded) bytes, so
/// equal-prefix strings stay adjacent under range scans. Longer input
/// is truncated to its first 8 bytes (a prefix index).
#[inline]
pub fn pack_str8(s: &str) -> u64 {
    let mut out = [0u8; 8];
    let b = s.as_bytes();
    let n = b.len().min(8);
    out[..n].copy_from_slice(&b[..n]);
    u64::from_be_bytes(out)
}

/// Define an order-preserving composite key: a struct of `u64` fields
/// with explicit bit widths, packed most-significant field first.
///
/// ```
/// txkv_schema::def_key! {
///     /// (district, customer) primary key.
///     pub struct CustomerKey { d: 5, c: 14 }
/// }
/// use txkv_schema::TupleKey;
/// let k = CustomerKey { d: 3, c: 77 };
/// assert_eq!(CustomerKey::unpack(k.pack()).c, 77);
/// // Order preservation: (3, 77) < (3, 78) < (4, 0).
/// assert!(k.pack() < CustomerKey { d: 3, c: 78 }.pack());
/// assert!(CustomerKey { d: 3, c: 78 }.pack() < CustomerKey { d: 4, c: 0 }.pack());
/// ```
#[macro_export]
macro_rules! def_key {
    ($(#[$meta:meta])* pub struct $name:ident { $($field:ident: $bits:expr),+ $(,)? }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub struct $name {
            $(pub $field: u64,)+
        }

        impl $crate::TupleKey for $name {
            const BITS: u32 = 0 $(+ $bits)+;

            #[inline]
            fn pack(&self) -> u64 {
                debug_assert!(
                    <Self as $crate::TupleKey>::BITS <= $crate::keyenc::PAYLOAD_BITS,
                    "key wider than the payload field"
                );
                let mut v: u64 = 0;
                $(
                    debug_assert!(
                        self.$field < (1u64 << $bits),
                        concat!(stringify!($name), ".", stringify!($field), " out of range")
                    );
                    v = (v << $bits) | self.$field;
                )+
                v
            }

            #[inline]
            fn unpack(payload: u64) -> Self {
                let mut shift = <Self as $crate::TupleKey>::BITS;
                $(
                    shift -= $bits;
                    let $field = (payload >> shift) & ((1u64 << $bits) - 1);
                )+
                let _ = shift;
                Self { $($field,)+ }
            }
        }
    };
}
