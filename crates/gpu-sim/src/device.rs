//! Device descriptors. The two presets mirror Table 1 of the paper.

/// GPU vendor, used by the efficiency model.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Vendor {
    Nvidia,
    Amd,
}

/// Static description of a GPU device (Table 1).
#[derive(Clone, Debug)]
pub struct DeviceSpec {
    /// Marketing name, e.g. "NVIDIA V100".
    pub name: &'static str,
    pub vendor: Vendor,
    /// Core clock in MHz.
    pub frequency_mhz: u32,
    /// CUDA cores / HIP (stream) cores.
    pub cores: u32,
    /// Streaming multiprocessors (NVIDIA) / compute units (AMD).
    pub sm_count: u32,
    /// Shared memory (LDS) capacity per SM/CU in bytes.
    pub shared_mem_per_sm: usize,
    /// L1 cache per SM/CU in bytes.
    pub l1_per_sm: usize,
    /// Unified L2 cache in bytes.
    pub l2_bytes: usize,
    /// Device memory capacity in bytes.
    pub memory_bytes: usize,
    /// Peak global-memory bandwidth in GB/s (10⁹ bytes per second).
    pub bandwidth_gbps: f64,
    /// SIMT width.
    pub warp_size: usize,
    /// Hardware limit on threads per block.
    pub max_threads_per_block: usize,
    /// Hardware limit on resident threads per SM.
    pub max_threads_per_sm: usize,
    /// Hardware limit on resident blocks per SM.
    pub max_blocks_per_sm: usize,
    /// Toolchain recorded for provenance (Table 1's compiler row).
    pub compiler: &'static str,
}

impl DeviceSpec {
    /// The NVIDIA (Volta) V100 of Table 1.
    pub fn v100() -> Self {
        DeviceSpec {
            name: "NVIDIA V100",
            vendor: Vendor::Nvidia,
            frequency_mhz: 1455,
            cores: 5120,
            sm_count: 80,
            shared_mem_per_sm: 96 * 1024,
            l1_per_sm: 96 * 1024,
            l2_bytes: 6144 * 1024,
            memory_bytes: 16 * 1024 * 1024 * 1024,
            bandwidth_gbps: 900.0,
            warp_size: 32,
            max_threads_per_block: 1024,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            compiler: "nvcc v11.0.221",
        }
    }

    /// The AMD MI100 of Table 1.
    pub fn mi100() -> Self {
        DeviceSpec {
            name: "AMD MI100",
            vendor: Vendor::Amd,
            frequency_mhz: 1502,
            cores: 7680,
            sm_count: 120,
            shared_mem_per_sm: 64 * 1024,
            l1_per_sm: 16 * 1024,
            l2_bytes: 8192 * 1024,
            memory_bytes: 32 * 1024 * 1024 * 1024,
            bandwidth_gbps: 1228.86,
            warp_size: 64,
            max_threads_per_block: 1024,
            max_threads_per_sm: 2560,
            max_blocks_per_sm: 40,
            compiler: "hipcc 4.2",
        }
    }

    /// An NVIDIA A100 (SXM, 80 GB) — one of the "emerging GPU
    /// architectures \[with\] significantly larger cache sizes" the paper's
    /// §5 expects to favor the moment representation (40 MB L2 vs the
    /// V100's 6 MB). No efficiency calibration exists for it (the paper
    /// measured only V100/MI100); use it for roofline projections.
    pub fn a100() -> Self {
        DeviceSpec {
            name: "NVIDIA A100",
            vendor: Vendor::Nvidia,
            frequency_mhz: 1410,
            cores: 6912,
            sm_count: 108,
            shared_mem_per_sm: 164 * 1024,
            l1_per_sm: 192 * 1024,
            l2_bytes: 40 * 1024 * 1024,
            memory_bytes: 80 * 1024 * 1024 * 1024,
            bandwidth_gbps: 2039.0,
            warp_size: 32,
            max_threads_per_block: 1024,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            compiler: "nvcc 12.x",
        }
    }

    /// One GCD of an AMD MI250X — the MI100's successor, again for §5
    /// roofline projections only.
    pub fn mi250x_gcd() -> Self {
        DeviceSpec {
            name: "AMD MI250X (1 GCD)",
            vendor: Vendor::Amd,
            frequency_mhz: 1700,
            cores: 7040,
            sm_count: 110,
            shared_mem_per_sm: 64 * 1024,
            l1_per_sm: 16 * 1024,
            l2_bytes: 8 * 1024 * 1024,
            memory_bytes: 64 * 1024 * 1024 * 1024,
            bandwidth_gbps: 1638.0,
            warp_size: 64,
            max_threads_per_block: 1024,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            compiler: "hipcc 5.x",
        }
    }

    /// Peak bandwidth in bytes per second.
    #[inline]
    pub fn bandwidth_bytes_per_sec(&self) -> f64 {
        self.bandwidth_gbps * 1e9
    }

    /// Whether a simulation state of `bytes` fits in device memory.
    #[inline]
    pub fn fits_in_memory(&self, bytes: usize) -> bool {
        bytes <= self.memory_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values() {
        let v = DeviceSpec::v100();
        assert_eq!(v.sm_count, 80);
        assert_eq!(v.cores, 5120);
        assert_eq!(v.shared_mem_per_sm, 98304);
        assert_eq!(v.bandwidth_gbps, 900.0);
        assert_eq!(v.memory_bytes, 16 << 30);

        let m = DeviceSpec::mi100();
        assert_eq!(m.sm_count, 120);
        assert_eq!(m.cores, 7680);
        assert_eq!(m.shared_mem_per_sm, 65536);
        assert_eq!(m.l1_per_sm, 16384);
        assert!((m.bandwidth_gbps - 1228.86).abs() < 1e-9);
        assert_eq!(m.memory_bytes, 32 << 30);
    }

    /// §5: the emerging devices carry much larger L2 caches — the A100's
    /// L2 alone holds the full moment state of ~0.5M 3D nodes.
    #[test]
    fn emerging_devices_have_bigger_caches() {
        let a = DeviceSpec::a100();
        let v = DeviceSpec::v100();
        assert!(a.l2_bytes > 6 * v.l2_bytes);
        let nodes_in_l2 = a.l2_bytes / (10 * 8);
        assert!(nodes_in_l2 > 500_000);
        let m = DeviceSpec::mi250x_gcd();
        assert!(m.bandwidth_gbps > DeviceSpec::mi100().bandwidth_gbps);
    }

    #[test]
    fn memory_capacity_check() {
        let v = DeviceSpec::v100();
        // The paper's example: 15M fluid points of D3Q19 in the ST pattern
        // need ~4.2 GB (2Q doubles each + neighbor index overheads aside).
        let st_bytes = 15_000_000usize * 2 * 19 * 8;
        assert!(v.fits_in_memory(st_bytes));
        assert!(!v.fits_in_memory(17 << 30));
    }
}
