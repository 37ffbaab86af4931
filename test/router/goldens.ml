(* Golden recordings of routed outputs — regenerate with gen_goldens.exe.
   sabre/tket cases recorded BEFORE the router hot-path refactor (PR 3);
   qmap cases recorded with the PR 9 Zobrist closed set and deferred
   materialisation on the >53-qubit devices that code targets; the
   sycamore54 and aspen4 qmap cases were recorded with that same search,
   before its rewrite onto the flat search arena; the sabre-decay, mlqls
   and five-trial paper-budget sabre5 cases were recorded before SABRE's
   rounds moved onto delta scoring over an in-place routing state; the
   qmap cases at the Fig. 4 gate budgets (300 and 1,500 gates) were
   recorded with the binary-heap open set and float f-costs, before the
   bucket queue; the qmap case on Eagle at 3,000 gates was recorded
   with the flat-slot closed set, before the closed set stored diffs
   from the layer's root mapping. Any further hot-path work must
   reproduce all of them bit-identically. *)

type case = {
  device : string;
  gate_budget : int;
  n_swaps : int;  (* designed SWAPs of the generated instance *)
  seed : int;  (* generator seed *)
  router : string;  (* registry name; "sabre5" is "sabre" with 5 trials *)
  router_seed : int;
  swaps : int;
  digest : string;  (* MD5 over initial mapping + ops token stream *)
}
let cases =
  [
    { device = "aspen4"; gate_budget = 150; n_swaps = 3; seed = 0;
      router = "sabre"; router_seed = 0;
      swaps = 3; digest = "3ca99fc0c720846fb2ed7b45eab65f06" };
    { device = "aspen4"; gate_budget = 150; n_swaps = 3; seed = 0;
      router = "tket"; router_seed = 0;
      swaps = 79; digest = "606de0a1cddd3ea4d275348fc752f2af" };
    { device = "aspen4"; gate_budget = 150; n_swaps = 3; seed = 1;
      router = "sabre"; router_seed = 0;
      swaps = 71; digest = "a3edf0600f489ed4cf31aeb8b42ea56f" };
    { device = "aspen4"; gate_budget = 150; n_swaps = 3; seed = 1;
      router = "tket"; router_seed = 0;
      swaps = 93; digest = "a0dfad5b586d191a384725d34eeed987" };
    { device = "aspen4"; gate_budget = 150; n_swaps = 3; seed = 7;
      router = "sabre"; router_seed = 0;
      swaps = 58; digest = "3eadc878a6beefcf67f76fcbf8124b1d" };
    { device = "aspen4"; gate_budget = 150; n_swaps = 3; seed = 7;
      router = "tket"; router_seed = 0;
      swaps = 4; digest = "931a704ac7e750df4837f7436faa5678" };
    { device = "aspen4"; gate_budget = 150; n_swaps = 3; seed = 42;
      router = "sabre"; router_seed = 0;
      swaps = 86; digest = "5c51753b43c9edd1d18e75e6b407b4b3" };
    { device = "aspen4"; gate_budget = 150; n_swaps = 3; seed = 42;
      router = "tket"; router_seed = 0;
      swaps = 123; digest = "b4f4e3b1b3dce5b329cd69a56a72ba69" };
    { device = "sycamore54"; gate_budget = 250; n_swaps = 3; seed = 0;
      router = "sabre"; router_seed = 0;
      swaps = 3; digest = "20bdf345e48d4d689c59ef944315ea1f" };
    { device = "sycamore54"; gate_budget = 250; n_swaps = 3; seed = 0;
      router = "tket"; router_seed = 0;
      swaps = 336; digest = "a32a850a88c3d0dde0f17f018bbf3216" };
    { device = "sycamore54"; gate_budget = 250; n_swaps = 3; seed = 1;
      router = "sabre"; router_seed = 0;
      swaps = 273; digest = "2da29f3862b67dff5d2c85cc73fdfe31" };
    { device = "sycamore54"; gate_budget = 250; n_swaps = 3; seed = 1;
      router = "tket"; router_seed = 0;
      swaps = 377; digest = "b60c7483cbb5421962c98045d240c099" };
    { device = "sycamore54"; gate_budget = 250; n_swaps = 3; seed = 7;
      router = "sabre"; router_seed = 0;
      swaps = 235; digest = "58e4f0bc508372ff61f8b1a403074ea9" };
    { device = "sycamore54"; gate_budget = 250; n_swaps = 3; seed = 7;
      router = "tket"; router_seed = 0;
      swaps = 260; digest = "75051cfe9a7653c287a529c35a718101" };
    { device = "sycamore54"; gate_budget = 250; n_swaps = 3; seed = 42;
      router = "sabre"; router_seed = 0;
      swaps = 205; digest = "ba32266d0d6f9dbd9bb972191a46adc5" };
    { device = "sycamore54"; gate_budget = 250; n_swaps = 3; seed = 42;
      router = "tket"; router_seed = 0;
      swaps = 171; digest = "b03bd81f3e037e14612ffa401171ac98" };
    { device = "rochester"; gate_budget = 53; n_swaps = 3; seed = 0;
      router = "qmap"; router_seed = 0;
      swaps = 663; digest = "4249c3414ff8ab5ecd8dd60874de2bf8" };
    { device = "rochester"; gate_budget = 53; n_swaps = 3; seed = 1;
      router = "qmap"; router_seed = 0;
      swaps = 604; digest = "53975efe1782451a847be9bca40a1d7b" };
    { device = "eagle"; gate_budget = 127; n_swaps = 3; seed = 0;
      router = "qmap"; router_seed = 0;
      swaps = 3177; digest = "807aaca8e21597a179f38ed1056c4f06" };
    { device = "eagle"; gate_budget = 127; n_swaps = 3; seed = 1;
      router = "qmap"; router_seed = 0;
      swaps = 2459; digest = "23818146682678ca08b4916baec42edf" };
    { device = "sycamore54"; gate_budget = 250; n_swaps = 3; seed = 0;
      router = "qmap"; router_seed = 0;
      swaps = 713; digest = "3d8f357caa94399ec703f16866db4482" };
    { device = "sycamore54"; gate_budget = 250; n_swaps = 3; seed = 1;
      router = "qmap"; router_seed = 0;
      swaps = 812; digest = "ac3464effca2b3358326c0c28a740b8c" };
    { device = "aspen4"; gate_budget = 150; n_swaps = 3; seed = 0;
      router = "qmap"; router_seed = 0;
      swaps = 129; digest = "75a7e3b745f0a6ae46d8799ed2a5979d" };
    { device = "aspen4"; gate_budget = 150; n_swaps = 3; seed = 1;
      router = "qmap"; router_seed = 0;
      swaps = 95; digest = "e881baa10e71d60557283e045d30a043" };
    { device = "aspen4"; gate_budget = 150; n_swaps = 3; seed = 1;
      router = "sabre-decay"; router_seed = 0;
      swaps = 30; digest = "a7f89999733a8a7e504e044637574256" };
    { device = "aspen4"; gate_budget = 150; n_swaps = 3; seed = 1;
      router = "mlqls"; router_seed = 0;
      swaps = 74; digest = "2247495756beaa3ec58d4ae38a7354bf" };
    { device = "aspen4"; gate_budget = 150; n_swaps = 3; seed = 7;
      router = "sabre-decay"; router_seed = 0;
      swaps = 30; digest = "d3424a26b33106f7a33782d2853ced9a" };
    { device = "aspen4"; gate_budget = 150; n_swaps = 3; seed = 7;
      router = "mlqls"; router_seed = 0;
      swaps = 48; digest = "89f30e7a5ff21231dacde060cd21e93d" };
    { device = "sycamore54"; gate_budget = 250; n_swaps = 3; seed = 1;
      router = "sabre-decay"; router_seed = 0;
      swaps = 289; digest = "c7bef4b64664ddc04cf707dfc9045354" };
    { device = "sycamore54"; gate_budget = 250; n_swaps = 3; seed = 1;
      router = "mlqls"; router_seed = 0;
      swaps = 236; digest = "cb4942319452956449991beae36a8339" };
    { device = "sycamore54"; gate_budget = 250; n_swaps = 3; seed = 7;
      router = "sabre-decay"; router_seed = 0;
      swaps = 203; digest = "604fd76a42dbbc0481f6a02cb08575cb" };
    { device = "sycamore54"; gate_budget = 250; n_swaps = 3; seed = 7;
      router = "mlqls"; router_seed = 0;
      swaps = 185; digest = "56352e46b7bda072fea6d560fbfc7a37" };
    { device = "rochester"; gate_budget = 1500; n_swaps = 20; seed = 1;
      router = "sabre5"; router_seed = 1;
      swaps = 1400; digest = "a6cadf986428df4e5e193a4b9aff7517" };
    { device = "rochester"; gate_budget = 1500; n_swaps = 20; seed = 3;
      router = "sabre5"; router_seed = 1;
      swaps = 1335; digest = "991ac3c6827d9d494789b468d59a35bb" };
    { device = "sycamore54"; gate_budget = 1500; n_swaps = 20; seed = 1;
      router = "sabre5"; router_seed = 1;
      swaps = 828; digest = "32d29cc0234301c6cda5e160e662910c" };
    { device = "sycamore54"; gate_budget = 1500; n_swaps = 20; seed = 3;
      router = "sabre5"; router_seed = 1;
      swaps = 109; digest = "2074991aad6cb336fa2b82663c91d792" };
    { device = "rochester"; gate_budget = 1500; n_swaps = 20; seed = 1;
      router = "sabre5"; router_seed = 2;
      swaps = 1105; digest = "1fa64fc7486b5a30cb498db5a43d36c9" };
    { device = "aspen4"; gate_budget = 300; n_swaps = 5; seed = 1;
      router = "qmap"; router_seed = 0;
      swaps = 214; digest = "bb5090571946f999fd3b133759e23b2b" };
    { device = "sycamore54"; gate_budget = 1500; n_swaps = 5; seed = 1;
      router = "qmap"; router_seed = 0;
      swaps = 3027; digest = "c1d7ee7c44defe83e3014cabdc13ef53" };
    { device = "rochester"; gate_budget = 1500; n_swaps = 5; seed = 1;
      router = "qmap"; router_seed = 0;
      swaps = 3888; digest = "8bdd5b22fd9d0a9f9223d0b808a36dd9" };
    { device = "aspen4"; gate_budget = 300; n_swaps = 20; seed = 1;
      router = "qmap"; router_seed = 0;
      swaps = 334; digest = "9bf1c9f494a65429e0f981331e762a4f" };
    { device = "sycamore54"; gate_budget = 1500; n_swaps = 20; seed = 1;
      router = "qmap"; router_seed = 0;
      swaps = 3563; digest = "e4b05acdac58915052edef241502936d" };
    { device = "rochester"; gate_budget = 1500; n_swaps = 20; seed = 1;
      router = "qmap"; router_seed = 0;
      swaps = 3370; digest = "8698a349c9c32cbdf8df60b7082049a6" };
    { device = "eagle"; gate_budget = 3000; n_swaps = 10; seed = 1;
      router = "qmap"; router_seed = 0;
      swaps = 12489; digest = "8442b3cdb434e06a9d468d3a3cc29b85" };
  ]
