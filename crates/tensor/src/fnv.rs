//! FNV-1a 64, the workspace's one stable content hash: clip and dataset
//! fingerprints and alert dedup keys all print its `{:016x}` digest.

/// Streaming FNV-1a 64 hasher; the digest depends only on the
/// concatenation of the bytes written, not on how they were chunked.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest as 16 lowercase hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}
