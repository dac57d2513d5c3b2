//! Block-device model.
//!
//! Fig. 6 of the paper reports target-disk performance of 182 KB/s for
//! 512-byte writes and 1.2 MB/s for 8 KiB writes (sync small-block telemetry
//! appends); the model interpolates between block-size anchor points.

use serde::{Deserialize, Serialize};

/// Static description of a block device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiskSpec {
    /// Device name (`sda`, `nvme0n1`).
    pub name: String,
    /// Rotational (HDD) vs solid-state.
    pub rotational: bool,
    /// Measured write throughput for 512-byte blocks, bytes/s.
    pub write_bps_512: f64,
    /// Measured write throughput for 8 KiB blocks, bytes/s.
    pub write_bps_8k: f64,
}

impl DiskSpec {
    /// A SATA HDD matching the paper's measured figures.
    pub fn sata(name: impl Into<String>) -> Self {
        DiskSpec {
            name: name.into(),
            rotational: true,
            write_bps_512: 182.0 * 1024.0,
            write_bps_8k: 1.2 * 1024.0 * 1024.0,
        }
    }

    /// A fast NVMe device.
    pub(crate) fn nvme(name: impl Into<String>) -> Self {
        DiskSpec {
            name: name.into(),
            rotational: false,
            write_bps_512: 120.0 * 1024.0 * 1024.0,
            write_bps_8k: 900.0 * 1024.0 * 1024.0,
        }
    }

    /// Write throughput (bytes/s) for a given block size, log-interpolated
    /// between the 512 B and 8 KiB anchors and clamped outside them.
    pub fn write_throughput(&self, block_size: usize) -> f64 {
        let b = (block_size.max(1)) as f64;
        let (b0, b1) = (512.0_f64, 8192.0_f64);
        if b <= b0 {
            return self.write_bps_512;
        }
        if b >= b1 {
            return self.write_bps_8k;
        }
        let t = (b.ln() - b0.ln()) / (b1.ln() - b0.ln());
        (self.write_bps_512.ln() * (1.0 - t) + self.write_bps_8k.ln() * t).exp()
    }

    /// Seconds to persist `bytes` written in `block_size`-byte appends.
    pub fn write_time(&self, bytes: u64, block_size: usize) -> f64 {
        bytes as f64 / self.write_throughput(block_size)
    }
}

/// Cumulative disk-activity accounting (per agent, per experiment window).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DiskUsage {
    /// Bytes written.
    pub bytes_written: u64,
    /// Write operations issued.
    pub write_ops: u64,
    /// Seconds the device spent busy.
    pub busy_seconds: f64,
}

impl DiskUsage {
    /// Record a write of `bytes` on `disk` using `block_size` appends.
    pub fn record_write(&mut self, disk: &DiskSpec, bytes: u64, block_size: usize) {
        self.bytes_written += bytes;
        self.write_ops += bytes.div_ceil(block_size as u64);
        self.busy_seconds += disk.write_time(bytes, block_size);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchors_match_paper() {
        let d = DiskSpec::sata("sda");
        assert!((d.write_throughput(512) - 182.0 * 1024.0).abs() < 1.0);
        assert!((d.write_throughput(8192) - 1.2 * 1024.0 * 1024.0).abs() < 1.0);
    }

    #[test]
    fn interpolation_is_monotone_and_clamped() {
        let d = DiskSpec::sata("sda");
        let t1k = d.write_throughput(1024);
        let t4k = d.write_throughput(4096);
        assert!(d.write_throughput(512) < t1k);
        assert!(t1k < t4k);
        assert!(t4k < d.write_throughput(8192));
        assert_eq!(d.write_throughput(64), d.write_throughput(512));
        assert_eq!(d.write_throughput(1 << 20), d.write_throughput(8192));
    }

    #[test]
    fn write_time_inverse_of_throughput() {
        let d = DiskSpec::sata("sda");
        let t = d.write_time(182 * 1024, 512);
        assert!((t - 1.0).abs() < 1e-9);
    }

    #[test]
    fn usage_accumulates() {
        let d = DiskSpec::sata("sda");
        let mut u = DiskUsage::default();
        u.record_write(&d, 1024, 512);
        u.record_write(&d, 100, 512);
        assert_eq!(u.bytes_written, 1124);
        assert_eq!(u.write_ops, 3); // 2 + 1 (ceil)
        assert!(u.busy_seconds > 0.0);
    }

    #[test]
    fn nvme_is_faster() {
        assert!(
            DiskSpec::nvme("n").write_throughput(512) > DiskSpec::sata("s").write_throughput(512)
        );
    }
}
