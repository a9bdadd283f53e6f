//! The [`Circuit`] netlist container.

#[cfg(debug_assertions)]
use std::collections::HashSet;
use std::sync::Arc;

use crate::device::{Device, DeviceId};
use crate::error::CircuitError;
use crate::name::{Name, Names};
use crate::node::NodeId;
use crate::stamp::{VarKind, VarMap};
use crate::waveform::Waveform;

/// Handle to a pinned ideal source inside a [`Circuit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PinId(pub(crate) u32);

impl PinId {
    /// Raw index of the pin in creation order.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Debug)]
pub(crate) struct Pin {
    pub node: NodeId,
    pub wave: Waveform,
}

/// A circuit under construction: nodes, devices and pinned ideal sources.
///
/// # Pinned sources
///
/// [`Circuit::pin`] attaches an ideal voltage source between a node and
/// ground and *eliminates the node from the unknown vector*: the node's
/// voltage is simply the waveform value at each instant. This is how supply
/// rails, search-line drivers and held SRAM internals are modelled. The
/// current each pinned source delivers is recovered after every accepted
/// step and integrated into per-source energies — the central observable of
/// the TCAM evaluation.
///
/// # Examples
///
/// ```
/// use ftcam_circuit::{Circuit, elements::Resistor, waveform::Waveform};
///
/// # fn main() -> Result<(), ftcam_circuit::CircuitError> {
/// let mut ckt = Circuit::new();
/// let vdd = ckt.node("vdd");
/// let out = ckt.node("out");
/// ckt.pin(vdd, "VDD", Waveform::dc(0.8))?;
/// ckt.add(Resistor::new(vdd, out, 1e3));
/// ckt.add(Resistor::new(out, ckt.ground(), 3e3));
/// # Ok(())
/// # }
/// ```
///
/// # Names
///
/// Every node, device and pin has a [`Name`]. A netlist generator creates
/// its parts by name with [`Circuit::add_node`], [`Circuit::fresh_node`],
/// [`Circuit::add_labeled`] and [`Circuit::pin`], typically with
/// [`Name::indexed`], keeps the returned ids and addresses nodes and pins
/// by id from then on: creation formats, allocates and hashes nothing.
/// [`Circuit::node`] and [`Circuit::find_node`] look nodes up by text, for
/// hand-written netlists and tests, by comparing the rendered text of each
/// name in turn; nothing is indexed. Names are rendered only where
/// something reads them: [`Circuit::node_name`], [`Circuit::device_label`],
/// [`Circuit::pin_label`], [`crate::export_spice`], error messages and the
/// label-based lookups of [`crate::TransientResult`] and
/// [`crate::analysis::DcResult`].
///
/// # Multiplicity
///
/// [`Circuit::set_multiplicity`] gives the nodes and devices created after
/// it an instance multiplicity `m`, like SPICE's `M=`: one device stands
/// for `m` identical copies in parallel. Every stamp of the device is
/// scaled by `m`, and so is the `gmin` shunt of the node, so a node of
/// multiplicity `m` obeys `m` times the equation of one unfolded copy.
/// The default is `m = 1`, which scales by `1.0` and is therefore exact.
#[derive(Debug)]
pub struct Circuit {
    names: Arc<Names>,
    /// Every node name rendered, to catch a duplicate.
    #[cfg(debug_assertions)]
    rendered: HashSet<String>,
    pub(crate) node_mult: Vec<f64>,
    pub(crate) devices: Vec<Box<dyn Device>>,
    pub(crate) device_mult: Vec<f64>,
    device_labels: Vec<Name>,
    pub(crate) pins: Vec<Pin>,
    pin_of_node: Vec<Option<PinId>>,
    fresh_counter: u32,
    multiplicity: f64,
}

impl Default for Circuit {
    fn default() -> Self {
        Self::new()
    }
}

impl Circuit {
    /// Creates an empty circuit containing only the ground node.
    pub fn new() -> Self {
        let mut ckt = Self {
            names: Arc::default(),
            #[cfg(debug_assertions)]
            rendered: HashSet::new(),
            node_mult: Vec::new(),
            devices: Vec::new(),
            device_mult: Vec::new(),
            device_labels: Vec::new(),
            pins: Vec::new(),
            pin_of_node: Vec::new(),
            fresh_counter: 0,
            multiplicity: 1.0,
        };
        ckt.add_node("gnd");
        ckt
    }

    /// Sets the instance multiplicity of every node and device created
    /// from now on (see [Multiplicity](#multiplicity)); `1.0` restores the
    /// default.
    ///
    /// # Panics
    ///
    /// Panics unless `m` is positive and finite.
    pub fn set_multiplicity(&mut self, m: f64) {
        assert!(
            m.is_finite() && m > 0.0,
            "multiplicity must be positive, got {m}"
        );
        self.multiplicity = m;
    }

    /// The ground (reference) node.
    pub fn ground(&self) -> NodeId {
        NodeId::GROUND
    }

    /// Returns the node with the given name, creating it if necessary.
    ///
    /// For hand-written netlists: the name is looked up first (see
    /// [Names](#names)). A generator that creates each node once uses
    /// [`Circuit::add_node`].
    ///
    /// # Panics
    ///
    /// Panics if a node named `name` must be created and `name` contains
    /// `#`: such names are reserved for [`Circuit::fresh_node`], which
    /// does not look its names up. An existing node of any name is found.
    pub fn node(&mut self, name: &str) -> NodeId {
        self.position(name).unwrap_or_else(|| {
            assert!(
                !name.contains('#'),
                "node name `{name}` contains `#`, which is reserved for fresh nodes"
            );
            self.add_node(name.to_string())
        })
    }

    /// Creates a node named `name`, without looking the name up.
    ///
    /// Node names must be unique; a debug build panics on a duplicate.
    pub fn add_node(&mut self, name: impl Into<Name>) -> NodeId {
        let name = name.into();
        #[cfg(debug_assertions)]
        assert!(
            self.rendered.insert(name.to_string()),
            "duplicate node name `{name}`"
        );
        let id = NodeId(self.node_mult.len() as u32);
        Arc::make_mut(&mut self.names).nodes.push(name);
        self.node_mult.push(self.multiplicity);
        self.pin_of_node.push(None);
        id
    }

    /// Creates a node named `{prefix}#{n}`, where `n` counts the calls
    /// on this circuit.
    ///
    /// Useful for netlist generators that instantiate many anonymous
    /// internal nodes. The name is not looked up: it must not be taken
    /// already (see [`Circuit::add_node`]), which [`Circuit::node`]
    /// guarantees by refusing to create names containing `#`.
    pub fn fresh_node(&mut self, prefix: impl Into<Name>) -> NodeId {
        let serial = self.fresh_counter;
        self.fresh_counter += 1;
        self.add_node(prefix.into().with_serial(serial))
    }

    /// Looks up an existing node by name.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnknownNodeName`] if no such node exists.
    pub fn find_node(&self, name: &str) -> Result<NodeId, CircuitError> {
        self.position(name)
            .ok_or_else(|| CircuitError::UnknownNodeName(name.to_string()))
    }

    /// The node whose name renders to `name`, if any.
    fn position(&self, name: &str) -> Option<NodeId> {
        let i = self.names.nodes.iter().rposition(|n| *n == *name)?;
        Some(NodeId(i as u32))
    }

    /// The name of `node`, rendered.
    ///
    /// # Panics
    ///
    /// Panics if the node does not belong to this circuit.
    pub fn node_name(&self, node: NodeId) -> String {
        self.names.nodes[node.index()].to_string()
    }

    /// Number of nodes, including ground.
    pub fn node_count(&self) -> usize {
        self.node_mult.len()
    }

    /// Iterates over `(id, name)` for every node.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &Name)> {
        self.names
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// The node and pin names, shared with analysis results.
    pub(crate) fn names(&self) -> &Arc<Names> {
        &self.names
    }

    /// Adds a device, returning its handle.
    pub fn add<D: Device + 'static>(&mut self, device: D) -> DeviceId {
        self.add_labeled(Name::indexed("dev", self.devices.len()), device)
    }

    /// Adds a device with an explicit label (used in energy reports).
    pub fn add_labeled<D: Device + 'static>(
        &mut self,
        label: impl Into<Name>,
        device: D,
    ) -> DeviceId {
        let id = DeviceId(self.devices.len() as u32);
        self.devices.push(Box::new(device));
        self.device_mult.push(self.multiplicity);
        self.device_labels.push(label.into());
        id
    }

    /// Number of devices in the netlist.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// The label given to `device` at insertion, rendered.
    ///
    /// # Panics
    ///
    /// Panics if the device does not belong to this circuit.
    pub fn device_label(&self, device: DeviceId) -> String {
        self.device_labels[device.index()].to_string()
    }

    /// Typed access to a device, for reprogramming state between analyses
    /// (e.g. writing a FeFET's polarization before a search).
    pub fn device_mut<D: Device>(&mut self, id: DeviceId) -> Option<&mut D> {
        let dev: &mut dyn Device = self.devices.get_mut(id.index())?.as_mut();
        (dev as &mut dyn std::any::Any).downcast_mut::<D>()
    }

    /// Typed shared access to a device.
    pub fn device_ref<D: Device>(&self, id: DeviceId) -> Option<&D> {
        let dev: &dyn Device = self.devices.get(id.index())?.as_ref();
        (dev as &dyn std::any::Any).downcast_ref::<D>()
    }

    /// Pins `node` to an ideal source with the given waveform.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::CannotPinGround`] if `node` is ground.
    /// * [`CircuitError::NodeAlreadyPinned`] if the node is already pinned.
    /// * [`CircuitError::UnknownNode`] if the node id is out of range.
    pub fn pin(
        &mut self,
        node: NodeId,
        label: impl Into<Name>,
        wave: Waveform,
    ) -> Result<PinId, CircuitError> {
        if node.is_ground() {
            return Err(CircuitError::CannotPinGround);
        }
        let pinned = self
            .pin_of_node
            .get_mut(node.index())
            .ok_or(CircuitError::UnknownNode(node))?;
        if pinned.is_some() {
            return Err(CircuitError::NodeAlreadyPinned(node));
        }
        let id = PinId(self.pins.len() as u32);
        *pinned = Some(id);
        self.pins.push(Pin { node, wave });
        Arc::make_mut(&mut self.names).pins.push(label.into());
        Ok(id)
    }

    /// Replaces the waveform of an existing pin (e.g. to change the search
    /// pattern between two transients on the same netlist).
    ///
    /// # Panics
    ///
    /// Panics if `pin` does not belong to this circuit.
    pub fn set_pin_waveform(&mut self, pin: PinId, wave: Waveform) {
        self.pins[pin.index()].wave = wave;
    }

    /// The waveform a pin currently drives.
    ///
    /// # Panics
    ///
    /// Panics if `pin` does not belong to this circuit.
    pub fn pin_waveform(&self, pin: PinId) -> &Waveform {
        &self.pins[pin.index()].wave
    }

    /// The label of a pin, rendered.
    ///
    /// # Panics
    ///
    /// Panics if `pin` does not belong to this circuit.
    pub fn pin_label(&self, pin: PinId) -> String {
        self.names.pins[pin.index()].to_string()
    }

    /// The node a pin drives.
    ///
    /// # Panics
    ///
    /// Panics if `pin` does not belong to this circuit.
    pub fn pin_node(&self, pin: PinId) -> NodeId {
        self.pins[pin.index()].node
    }

    /// Number of pinned sources.
    pub fn pin_count(&self) -> usize {
        self.pins.len()
    }

    /// Evaluates all pin waveforms at time `t` into `out`.
    pub(crate) fn pinned_values_at(&self, t: f64, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.pins.iter().map(|p| p.wave.value(t)));
    }

    /// Builds the node → unknown mapping and assigns device branch indices.
    pub(crate) fn build_var_map(&mut self) -> VarMap {
        let mut kinds = vec![VarKind::Ground; self.node_count()];
        let mut free_mult = Vec::new();
        let mut col = 0usize;
        for (i, kind) in kinds.iter_mut().enumerate() {
            let node = NodeId(i as u32);
            if node.is_ground() {
                *kind = VarKind::Ground;
            } else if let Some(pin) = self.pin_of_node[i] {
                *kind = VarKind::Pinned(pin.index());
            } else {
                *kind = VarKind::Free(col);
                free_mult.push(self.node_mult[i]);
                col += 1;
            }
        }
        let mut n_branches = 0usize;
        for dev in &mut self.devices {
            let count = dev.branch_count();
            if count > 0 {
                dev.assign_branches(n_branches);
            }
            n_branches += count;
        }
        VarMap {
            kinds,
            n_free: col,
            n_branches,
            free_mult,
        }
    }

    /// Collects waveform breakpoints from pins and devices in `[0, t_stop]`.
    pub(crate) fn collect_breakpoints(&self, t_stop: f64) -> Vec<f64> {
        let mut bps: Vec<f64> = Vec::new();
        for pin in &self.pins {
            bps.extend(pin.wave.breakpoints(t_stop));
        }
        for dev in &self.devices {
            bps.extend(dev.breakpoints(t_stop));
        }
        bps.retain(|t| t.is_finite() && *t > 0.0 && *t < t_stop);
        bps.sort_by(|a, b| a.partial_cmp(b).expect("finite breakpoints"));
        bps.dedup_by(|a, b| (*a - *b).abs() < 1e-18);
        bps
    }

    /// `true` if any device is nonlinear (affects the Newton iteration cap).
    pub(crate) fn has_nonlinear_devices(&self) -> bool {
        self.devices.iter().any(|d| d.is_nonlinear())
    }

    /// Indices, in device order, of the devices the measure pass
    /// evaluates: those with a [`Device::terminals`] entry on a pinned
    /// node, and those that do not list their terminals. No other device
    /// writes a current to a pinned node.
    pub(crate) fn measured_devices(&self, vars: &VarMap) -> Vec<usize> {
        let pinned = |node: &NodeId| matches!(vars.kinds[node.index()], VarKind::Pinned(_));
        (0..self.devices.len())
            .filter(|&idx| {
                self.devices[idx]
                    .terminals()
                    .is_none_or(|nodes| nodes.iter().any(pinned))
            })
            .collect()
    }

    /// Splits the device list into the static set (stamped once per time
    /// point into the baseline) and the dynamic set (restamped every
    /// Newton iteration), by index in insertion order.
    ///
    /// A nonlinear device is dynamic no matter what its
    /// [`Device::stamp_class`] hint claims — the hint can only *promote*
    /// restamping work to the baseline, never suppress a needed restamp.
    /// `all_linear` is `true` when every device is
    /// [`StampClass::Linear`][crate::device::StampClass::Linear], i.e. the
    /// assembled matrix depends only on `(dt, method, gmin)` and an LU
    /// factorisation can be carried across time points.
    pub(crate) fn stamp_partition(&self) -> StampPartition {
        let mut part = StampPartition {
            static_devices: Vec::new(),
            dynamic_devices: Vec::new(),
            all_linear: true,
            time_varying: false,
        };
        for (idx, dev) in self.devices.iter().enumerate() {
            let class = if dev.is_nonlinear() {
                crate::device::StampClass::Dynamic
            } else {
                dev.stamp_class()
            };
            match class {
                crate::device::StampClass::Linear => part.static_devices.push(idx),
                crate::device::StampClass::TimeVarying => {
                    part.static_devices.push(idx);
                    part.all_linear = false;
                    part.time_varying = true;
                }
                crate::device::StampClass::Dynamic => {
                    part.dynamic_devices.push(idx);
                    part.all_linear = false;
                }
            }
        }
        part
    }
}

/// Result of [`Circuit::stamp_partition`]: device indices by stamp role.
#[derive(Debug, Clone, Default)]
pub(crate) struct StampPartition {
    /// Devices whose matrix stamp is fixed within one time point's Newton
    /// loop (`Linear` + `TimeVarying`): stamped once into the baseline.
    pub static_devices: Vec<usize>,
    /// Devices restamped every Newton iteration (`Dynamic`).
    pub dynamic_devices: Vec<usize>,
    /// `true` when every device is `Linear`, making the matrix identical
    /// across time points at a fixed `(dt, method, gmin)`.
    pub all_linear: bool,
    /// `true` when some device is `TimeVarying`: the static set's matrix
    /// stamp then moves between time points.
    pub time_varying: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elements::Resistor;

    #[test]
    fn node_lookup_is_idempotent() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let a2 = ckt.node("a");
        assert_eq!(a, a2);
        assert_eq!(ckt.node_count(), 2);
        assert_eq!(ckt.node_name(a), "a");
    }

    #[test]
    fn fresh_nodes_are_unique() {
        let mut ckt = Circuit::new();
        let a = ckt.fresh_node("ml");
        let b = ckt.fresh_node("ml");
        assert_ne!(a, b);
    }

    /// Generated names render to the text the netlist builders formatted
    /// before names were stored compactly, and the lookups by text find
    /// them.
    #[test]
    fn generated_names_render_as_formatted_text() {
        let mut ckt = Circuit::new();
        let wen = ckt.add_node("wen");
        let ml = ckt.add_node(Name::indexed("ml", 0));
        let rail = ckt.fresh_node("footer_rail");
        let mid = ckt.fresh_node(Name::indexed("c16.mid1.", 17));
        let mid2 = ckt.fresh_node(Name::indexed("c16.mid2.", 17));
        let drv = ckt.add_node(Name::indexed("slbdrv", 63));
        let text = ckt.node("b.mid");
        let nodes: Vec<String> = ckt.nodes().map(|(_, name)| name.to_string()).collect();
        assert_eq!(
            nodes,
            [
                "gnd",
                "wen",
                "ml0",
                "footer_rail#0",
                "c16.mid1.17#1",
                "c16.mid2.17#2",
                "slbdrv63",
                "b.mid"
            ]
        );
        for (id, name) in [(rail, "footer_rail#0"), (mid2, "c16.mid2.17#2")] {
            assert_eq!(ckt.node_name(id), name);
            assert_eq!(ckt.find_node(name), Ok(id));
        }
        assert_eq!(ckt.node("gnd"), NodeId::GROUND);
        assert_eq!(ckt.node("ml0"), ml);
        assert_eq!(ckt.node("b.mid"), text);
        assert_eq!(ckt.node_count(), 8, "lookups create nothing");
        assert!(ckt.find_node("ml").is_err());
        assert!(ckt.find_node("c16.mid1.17").is_err());
        assert_eq!(ckt.find_node("c16.mid1.17#1"), Ok(mid));

        let first = ckt.add(Resistor::new(wen, ml, 1e3));
        let pre = ckt.add_labeled(Name::indexed("m_pre", 3), Resistor::new(ml, drv, 1e3));
        let fe = ckt.add_labeled(
            Name::indexed("eafull.fe2.", 40),
            Resistor::new(ml, mid, 1e3),
        );
        let by_text = ckt.add_labeled(format!("r_{}", 5), Resistor::new(ml, rail, 1e3));
        let last = ckt.add(Resistor::new(ml, text, 1e3));
        let labels: Vec<String> = [first, pre, fe, by_text, last]
            .map(|d| ckt.device_label(d))
            .into();
        assert_eq!(labels, ["dev0", "m_pre3", "eafull.fe2.40", "r_5", "dev4"]);

        let vpre = ckt.pin(drv, Name::indexed("VPRE", 12), Waveform::dc(0.5));
        let en = ckt.pin(wen, "EN", Waveform::dc(0.0));
        let d = ckt.pin(text, format!("DB{}", 7), Waveform::dc(0.0));
        let pins: Vec<String> = [vpre, en, d].map(|p| ckt.pin_label(p.unwrap())).into();
        assert_eq!(pins, ["VPRE12", "EN", "DB7"]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "duplicate node name `sl12`")]
    fn duplicate_generated_name_panics_in_debug_builds() {
        let mut ckt = Circuit::new();
        ckt.add_node(Name::indexed("sl", 12));
        ckt.add_node(Name::indexed("sl1", 2));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "duplicate node name `ml#0`")]
    fn fresh_name_taken_by_hand_panics_in_debug_builds() {
        let mut ckt = Circuit::new();
        ckt.add_node("ml#0".to_string());
        ckt.fresh_node("ml");
    }

    #[test]
    #[should_panic(expected = "reserved for fresh nodes")]
    fn node_refuses_to_create_a_fresh_style_name() {
        let mut ckt = Circuit::new();
        ckt.node("ml#0");
    }

    #[test]
    fn node_finds_a_fresh_node_by_its_name() {
        let mut ckt = Circuit::new();
        let fresh = ckt.fresh_node("ml");
        assert_eq!(ckt.node("ml#0"), fresh);
        assert_eq!(ckt.node_count(), 2);
    }

    #[test]
    fn find_node_errors_on_missing() {
        let ckt = Circuit::new();
        assert!(matches!(
            ckt.find_node("nope"),
            Err(CircuitError::UnknownNodeName(_))
        ));
    }

    #[test]
    fn cannot_pin_ground_or_double_pin() {
        let mut ckt = Circuit::new();
        let gnd = ckt.ground();
        assert_eq!(
            ckt.pin(gnd, "x", Waveform::dc(0.0)),
            Err(CircuitError::CannotPinGround)
        );
        let n = ckt.node("vdd");
        ckt.pin(n, "VDD", Waveform::dc(1.0)).unwrap();
        assert!(matches!(
            ckt.pin(n, "VDD2", Waveform::dc(1.0)),
            Err(CircuitError::NodeAlreadyPinned(_))
        ));
    }

    #[test]
    fn var_map_skips_ground_and_pinned() {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let mid = ckt.node("mid");
        ckt.pin(vdd, "VDD", Waveform::dc(1.0)).unwrap();
        ckt.add(Resistor::new(vdd, mid, 1e3));
        ckt.add(Resistor::new(mid, ckt.ground(), 1e3));
        let vars = ckt.build_var_map();
        assert_eq!(vars.n_free, 1);
        assert_eq!(vars.n_branches, 0);
        assert_eq!(vars.kinds[0], VarKind::Ground);
        assert_eq!(vars.kinds[vdd.index()], VarKind::Pinned(0));
        assert_eq!(vars.kinds[mid.index()], VarKind::Free(0));
    }

    #[test]
    fn typed_device_access_roundtrip() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let id = ckt.add(Resistor::new(a, ckt.ground(), 1e3));
        let r: &Resistor = ckt.device_ref(id).unwrap();
        assert_eq!(r.resistance(), 1e3);
        let r: &mut Resistor = ckt.device_mut(id).unwrap();
        r.set_resistance(2e3);
        let r: &Resistor = ckt.device_ref(id).unwrap();
        assert_eq!(r.resistance(), 2e3);
    }

    #[test]
    fn breakpoints_are_sorted_and_deduped() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.pin(
            a,
            "A",
            Waveform::pulse(0.0, 1.0, 1e-9, 0.1e-9, 0.1e-9, 1e-9),
        )
        .unwrap();
        let b = ckt.node("b");
        ckt.pin(
            b,
            "B",
            Waveform::pulse(0.0, 1.0, 1e-9, 0.1e-9, 0.1e-9, 1e-9),
        )
        .unwrap();
        let bps = ckt.collect_breakpoints(10e-9);
        assert_eq!(bps.len(), 4); // duplicates merged
        assert!(bps.windows(2).all(|w| w[0] < w[1]));
    }
}
