(* Golden recordings of routed outputs — regenerate with gen_goldens.exe.
   sabre/tket cases recorded BEFORE the router hot-path refactor (PR 3);
   qmap cases recorded with the PR 9 Zobrist closed set and deferred
   materialisation on the >53-qubit devices that code targets; the
   sycamore54 and aspen4 qmap cases were recorded with that same search,
   before its rewrite onto the flat search arena. Any further hot-path
   work must reproduce all of them bit-identically. *)

type case = {
  device : string;
  gate_budget : int;
  seed : int;
  router : string;
  swaps : int;
  digest : string;  (* MD5 over initial mapping + ops token stream *)
}
let cases =
  [
    { device = "aspen4"; gate_budget = 150; seed = 0; router = "sabre";
      swaps = 3; digest = "3ca99fc0c720846fb2ed7b45eab65f06" };
    { device = "aspen4"; gate_budget = 150; seed = 0; router = "tket";
      swaps = 79; digest = "606de0a1cddd3ea4d275348fc752f2af" };
    { device = "aspen4"; gate_budget = 150; seed = 1; router = "sabre";
      swaps = 71; digest = "a3edf0600f489ed4cf31aeb8b42ea56f" };
    { device = "aspen4"; gate_budget = 150; seed = 1; router = "tket";
      swaps = 93; digest = "a0dfad5b586d191a384725d34eeed987" };
    { device = "aspen4"; gate_budget = 150; seed = 7; router = "sabre";
      swaps = 58; digest = "3eadc878a6beefcf67f76fcbf8124b1d" };
    { device = "aspen4"; gate_budget = 150; seed = 7; router = "tket";
      swaps = 4; digest = "931a704ac7e750df4837f7436faa5678" };
    { device = "aspen4"; gate_budget = 150; seed = 42; router = "sabre";
      swaps = 86; digest = "5c51753b43c9edd1d18e75e6b407b4b3" };
    { device = "aspen4"; gate_budget = 150; seed = 42; router = "tket";
      swaps = 123; digest = "b4f4e3b1b3dce5b329cd69a56a72ba69" };
    { device = "sycamore54"; gate_budget = 250; seed = 0; router = "sabre";
      swaps = 3; digest = "20bdf345e48d4d689c59ef944315ea1f" };
    { device = "sycamore54"; gate_budget = 250; seed = 0; router = "tket";
      swaps = 336; digest = "a32a850a88c3d0dde0f17f018bbf3216" };
    { device = "sycamore54"; gate_budget = 250; seed = 1; router = "sabre";
      swaps = 273; digest = "2da29f3862b67dff5d2c85cc73fdfe31" };
    { device = "sycamore54"; gate_budget = 250; seed = 1; router = "tket";
      swaps = 377; digest = "b60c7483cbb5421962c98045d240c099" };
    { device = "sycamore54"; gate_budget = 250; seed = 7; router = "sabre";
      swaps = 235; digest = "58e4f0bc508372ff61f8b1a403074ea9" };
    { device = "sycamore54"; gate_budget = 250; seed = 7; router = "tket";
      swaps = 260; digest = "75051cfe9a7653c287a529c35a718101" };
    { device = "sycamore54"; gate_budget = 250; seed = 42; router = "sabre";
      swaps = 205; digest = "ba32266d0d6f9dbd9bb972191a46adc5" };
    { device = "sycamore54"; gate_budget = 250; seed = 42; router = "tket";
      swaps = 171; digest = "b03bd81f3e037e14612ffa401171ac98" };
    { device = "rochester"; gate_budget = 53; seed = 0; router = "qmap";
      swaps = 663; digest = "4249c3414ff8ab5ecd8dd60874de2bf8" };
    { device = "rochester"; gate_budget = 53; seed = 1; router = "qmap";
      swaps = 604; digest = "53975efe1782451a847be9bca40a1d7b" };
    { device = "eagle"; gate_budget = 127; seed = 0; router = "qmap";
      swaps = 3177; digest = "807aaca8e21597a179f38ed1056c4f06" };
    { device = "eagle"; gate_budget = 127; seed = 1; router = "qmap";
      swaps = 2459; digest = "23818146682678ca08b4916baec42edf" };
    { device = "sycamore54"; gate_budget = 250; seed = 0; router = "qmap";
      swaps = 713; digest = "3d8f357caa94399ec703f16866db4482" };
    { device = "sycamore54"; gate_budget = 250; seed = 1; router = "qmap";
      swaps = 812; digest = "ac3464effca2b3358326c0c28a740b8c" };
    { device = "aspen4"; gate_budget = 150; seed = 0; router = "qmap";
      swaps = 129; digest = "75a7e3b745f0a6ae46d8799ed2a5979d" };
    { device = "aspen4"; gate_budget = 150; seed = 1; router = "qmap";
      swaps = 95; digest = "e881baa10e71d60557283e045d30a043" };
  ]
