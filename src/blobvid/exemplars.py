"""The two bundled layout exemplar documents.

They double as parse fixtures in the tests. Caption
strings keep their original leading and trailing spaces; they are data, not
prose to tidy up.
"""

EXEMPLAR_1_LAYOUT = """\
{"Frame0": {"Object2": {"blob": [443, 252, 102, 72, -2.353],
   "caption": "The bird in the close-up image is a small, brown creature with a white belly. It appears to be in mid-flight, with its wings spread wide and its tail fanned out. The bird is perched on a tree branch, which is covered in green leaves. The bird's eyes are open, and it seems to be looking directly at the camera. "}},
 "Frame2": {"Object2": {"blob": [438, 253, 106, 68, -2.357],
   "caption": " The bird in the close-up image is a small, brown and white bird with a prominent beak, perched on a tree branch. The bird turns its head to the side."}},
 "Frame12": {"Object2": {"blob": [445, 249, 119, 57, -2.023],
   "caption": " The bird in the close-up image is a small owl perched on a tree branch. The bird is looking upwards, turning its face away from the camera. "}}}"""

EXEMPLAR_2_LAYOUT = """\
{"Frame0": {"Object2": {"blob": [365, 277, 93, 64, 1.749],
   "caption": "The horse in the close-up image is a small, brown pony. It is wearing a saddle and a bridle, indicating it is prepared for riding. The pony appears to be walking on a street, with a red car visible in the background. "},
  "Object3": {"blob": [165, 247, 102, 75, -3.095],
   "caption": "The car in the close-up image is a black Volkswagen Beetle. It has a distinctive rounded shape and a yellow license plate. The car appears to be in motion on a road. "},
  "Object4": {"blob": [563, 276, 132, 44, 1.599],
   "caption": "The image is blurry, making it difficult to discern specific details about the person. The person appears to be walking, possibly in a parking lot or similar outdoor setting. The individual is holding onto a leash, suggesting they might be walking a dog. "}},
 "Frame12": {"Object2": {"blob": [387, 229, 136, 95, 2.685],
   "caption": " The horse in the close-up image is a large, brown horse with a white blaze on its face. It appears to be a healthy and well-groomed animal. "},
  "Object3": {"blob": [30, 188, 87, 70, -2.388],
   "caption": " The car in the close-up image is a black sedan with a yellow license plate. The vehicle appears to be parked or stationary, as indicated by the lack of motion blur. "},
  "Object4": {"blob": [670, 242, 151, 64, 1.598],
   "caption": " The image is a close-up of a person who appears to be a woman. She is holding a leash, which suggests she might be with a pet. The woman is wearing a white top and blue jeans. "}}}"""
